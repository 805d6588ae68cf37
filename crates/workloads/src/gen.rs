//! The synthetic trace generator.
//!
//! [`TraceGen::build`] allocates a workload's memory through the OS model
//! (so the page table and VA→PA deltas are *real*, produced by the buddy
//! allocator under the chosen placement policy) and then emits a
//! deterministic instruction stream in which every static memory PC has a
//! stable role — streaming a slice, probing a hash region, chasing
//! pointers, or hammering a hot set — mirroring how real load PCs behave
//! and giving the PC-indexed SIPT predictors something learnable.
//!
//! **Packed emission.** The generator emits each instruction directly in
//! the encoding `MaterializedTrace` stores: a `(pc, meta, va)` record
//! whose metadata word is built branch-free by
//! [`sipt_cpu::pack_meta_fields`] from `(register, present)` pairs, so no
//! `Inst` with its four `Option`s is built and re-packed.
//! `MaterializedTrace::from_gen` pushes the records straight into its
//! arrays; the `Iterator` impl decodes the same records with
//! [`sipt_cpu::unpack_inst_meta`], so there is one generation path. The
//! coin flips use precomputed [`Bernoulli`] thresholds, which consume
//! the same `u64` and return the same bit as `gen_bool`.
//!
//! **Contiguous runs.** [`Layout`] maps a linear offset to a VA. `mmap`
//! places a mapping below 2 MiB directly after the previous one, and only
//! huge-page-eligible mappings are 2 MiB-aligned. A Burst workload maps
//! one region and the Chunked and Incremental presets map sub-2 MiB
//! chunks, so every preset's regions form one VA-contiguous run, even
//! the Incremental ones with tens of thousands of single-page regions.
//! `Layout` merges VA-adjacent regions into runs, so `va_of` searches a
//! single run on every preset instead of up to 65,536 regions; layouts
//! whose chunks leave alignment gaps keep one run per gap.

use crate::spec::{AllocPattern, WorkloadSpec};
use sipt_cpu::{meta_has_mem, pack_meta_fields, unpack_inst_meta, Inst};
use sipt_mem::{AddressSpace, BuddyAllocator, MemError, Region, VirtAddr, PAGE_SIZE};
use sipt_rng::{Bernoulli, Rng, SeedableRng, StdRng};

/// The workload's view of its memory: the mmap'd regions flattened into
/// one linear space of `bytes` bytes.
///
/// Regions that follow each other in VA are merged into one run, so a
/// layout holds one entry per VA-contiguous run, not per region.
#[derive(Debug, Clone)]
pub struct Layout {
    /// First virtual address of each run.
    starts: Vec<VirtAddr>,
    /// Starting offset of each run in the linear space.
    cumulative: Vec<u64>,
    bytes: u64,
}

impl Layout {
    fn new(regions: Vec<Region>) -> Self {
        let mut starts = Vec::new();
        let mut cumulative = Vec::new();
        let mut run_end = None;
        let mut total = 0;
        for r in regions {
            if run_end != Some(r.start) {
                starts.push(r.start);
                cumulative.push(total);
            }
            run_end = Some(r.end());
            total += r.bytes();
        }
        Self { starts, cumulative, bytes: total }
    }

    /// Total bytes mapped.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Translate a linear offset into a virtual address.
    ///
    /// # Panics
    ///
    /// Panics if `offset >= bytes()`.
    #[inline]
    pub fn va_of(&self, offset: u64) -> VirtAddr {
        assert!(offset < self.bytes, "offset {offset} beyond layout ({})", self.bytes);
        let idx = self.cumulative.partition_point(|&c| c <= offset) - 1;
        self.starts[idx] + (offset - self.cumulative[idx])
    }
}

/// The per-static-PC address-generation role.
///
/// Real load PCs exhibit strong *page-level* temporal locality: a PC that
/// touches a page usually touches it many more times before moving on.
/// This is what makes both the bypass perceptron and the IDB effective
/// (paper §VI: "only the first access to a page will mispredict; there are
/// typically many L1 accesses per page"), so the random/chase roles work
/// in page-bursts rather than drawing a fresh page per access.
#[derive(Debug, Clone)]
enum Role {
    /// Sequential sweep of `[lo, hi)` at `stride` bytes, wrapping.
    Stream { cursor: u64, stride: u64, lo: u64, hi: u64 },
    /// Random paged bursts over `[lo, hi)`: pick a page, walk `burst_left`
    /// sequential 16-byte steps inside it, then jump to a new page.
    Burst { lo: u64, hi: u64, page: u64, step: u64, burst_left: u32 },
    /// Alternating paged bursts: one PC ping-pongs between *two* pages
    /// (e.g. `dst[i] = f(src[i])` loops). When the two pages have
    /// different VA→PA deltas, the speculation outcome alternates — the
    /// access pattern saturating counters cannot learn but a
    /// global-history perceptron can (paper §V).
    AltBurst { lo: u64, hi: u64, pages: [u64; 2], step: u64, burst_left: u32, toggle: bool },
    /// Dependent pointer chase with the same paged-burst structure: the
    /// next address needs the previous load's value (node clusters).
    Chase { lo: u64, hi: u64, page: u64, step: u64, burst_left: u32 },
    /// Hot-set reuse: mostly a tiny per-PC working set (`tiny` bytes at
    /// `slice_lo`), with a uniform tail over the PC's whole slice that
    /// gives larger caches something to catch.
    Hot { slice_lo: u64, slice_hi: u64, tiny: u64 },
}

#[derive(Debug, Clone)]
struct StaticMem {
    pc: u64,
    role: Role,
}

/// Registers: 0–15 ALU rotating pool, 16 chase register, 32–47 load
/// destinations.
const ALU_REGS: u8 = 16;
const CHASE_REG: u8 = 16;
const LOAD_REG_BASE: u8 = 32;
const LOAD_REGS: u8 = 16;

/// One generated instruction in the encoding `MaterializedTrace` stores:
/// its PC, its packed metadata word (see `sipt_cpu::pack_meta_fields`)
/// and, iff the word references memory, its virtual address (else 0).
#[derive(Debug, Clone, Copy)]
pub(crate) struct PackedInst {
    pub(crate) pc: u64,
    pub(crate) meta: u32,
    pub(crate) va: u64,
}

// The generator's fixed-probability coin flips; the spec-dependent
// `mem_ratio` and `store_ratio` coins live in `TraceGen`.

/// A hot-role access hits its tiny set.
const HOT_TINY: Bernoulli = Bernoulli::new(0.92);
/// A load takes its address from the latest ALU result.
const LOAD_ADDR_REG: Bernoulli = Bernoulli::new(0.5);
/// An ALU op extends the previous ALU chain.
const ALU_CHAIN: Bernoulli = Bernoulli::new(0.4);
/// An ALU op consumes the latest load result.
const ALU_LOAD_USE: Bernoulli = Bernoulli::new(0.3);
/// An ALU op has the long (3-cycle) latency.
const ALU_LONG: Bernoulli = Bernoulli::new(0.1);

/// A deterministic synthetic instruction stream.
///
/// Produced by [`TraceGen::build`]; consumed as an `Iterator<Item = Inst>`
/// by the core timing models, or drained as packed records by
/// `MaterializedTrace::from_gen`.
#[derive(Debug, Clone)]
pub struct TraceGen {
    statics: Vec<StaticMem>,
    layout: Layout,
    /// Memory op rather than ALU op (`spec.mem_ratio`).
    mem_coin: Bernoulli,
    /// Store rather than load (`spec.store_ratio`).
    store_coin: Bernoulli,
    rng: StdRng,
    remaining: u64,
    alu_rot: u8,
    load_rot: u8,
    last_alu_dst: u8,
    /// Temporal clustering of static memory PCs (basic-block locality):
    /// the current static and how many more memory ops stay with it.
    cur_static: usize,
    static_run_left: u32,
}

impl TraceGen {
    /// Allocate `spec`'s memory in `asp` (backed by `phys`) and construct
    /// the generator for `instructions` dynamic instructions.
    ///
    /// # Errors
    ///
    /// Propagates [`MemError`] if physical memory cannot back the
    /// footprint.
    pub fn build(
        spec: &WorkloadSpec,
        asp: &mut AddressSpace,
        phys: &mut BuddyAllocator,
        instructions: u64,
        seed: u64,
    ) -> Result<Self, MemError> {
        spec.validate();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x51B7_7EAC);
        let mut regions = Vec::new();
        match spec.alloc {
            AllocPattern::Burst => {
                regions.push(asp.mmap(spec.footprint, phys)?);
            }
            AllocPattern::Chunked { chunk_pages } => {
                // Heap growth in medium chunks against intact free lists:
                // consecutive chunks split consecutively out of large buddy
                // blocks, so VA→PA deltas stay constant across chunks.
                let chunk = chunk_pages * PAGE_SIZE;
                let mut mapped = 0;
                while mapped < spec.footprint {
                    regions.push(asp.mmap(chunk.min(spec.footprint - mapped), phys)?);
                    mapped += chunk;
                }
            }
            AllocPattern::Incremental { chunk_pages } => {
                // A program that grows its heap in small increments does so
                // over time, interleaved with the rest of the system's
                // allocator traffic; on a machine with any uptime the buddy
                // free lists hold scattered singles, so successive small
                // allocations do NOT receive consecutive frames. Model that
                // churn: pin a random pool, free part of it as scattered
                // holes, let the workload allocate from the holes, then
                // release the pool.
                let pages = spec.footprint.div_ceil(PAGE_SIZE);
                let order = chunk_pages.next_power_of_two().trailing_zeros();
                let hold = churn_begin(phys, pages, order, &mut rng)?;
                let chunk = chunk_pages * PAGE_SIZE;
                let mut mapped = 0;
                while mapped < spec.footprint {
                    regions.push(asp.mmap(chunk.min(spec.footprint - mapped), phys)?);
                    mapped += chunk;
                }
                for block in hold {
                    phys.free(block);
                }
            }
        }
        let layout = Layout::new(regions);

        // Partition the static PCs across roles per the pattern mix.
        let n = spec.mem_pcs;
        let n_stream = (spec.mix.stream * n as f64).round() as usize;
        let n_random = (spec.mix.random * n as f64).round() as usize;
        let n_chase = (spec.mix.chase * n as f64).round() as usize;
        let bytes = layout.bytes();
        // Each hot PC owns one page worth of structure (stack frames,
        // accumulators, index nodes); keeping it within a single page is
        // both realistic and what keeps the D-TLB hit rate high.
        let hot_slice = PAGE_SIZE.min(bytes / 2).max(64);
        let mut statics = Vec::with_capacity(n);
        for i in 0..n {
            // Spread PCs so they don't trivially collide modulo the
            // 64-entry predictor tables.
            let pc = 0x40_0000 + (i as u64) * 0x9E5;
            let role = if i < n_stream {
                // Each streamer sweeps its own slice of the footprint.
                let slice = bytes / n_stream.max(1) as u64;
                let lo = slice * i as u64;
                let hi = (lo + slice).min(bytes);
                Role::Stream { cursor: 0, stride: 8, lo, hi: hi.max(lo + 64) }
            } else if i < n_stream + n_random {
                if i % 3 == 0 {
                    Role::AltBurst {
                        lo: 0,
                        hi: bytes,
                        pages: [0, 0],
                        step: 0,
                        burst_left: 0,
                        toggle: false,
                    }
                } else {
                    Role::Burst { lo: 0, hi: bytes, page: 0, step: 0, burst_left: 0 }
                }
            } else if i < n_stream + n_random + n_chase {
                Role::Chase { lo: 0, hi: bytes, page: 0, step: 0, burst_left: 0 }
            } else {
                let k = (i - n_stream - n_random - n_chase) as u64;
                // Random page-aligned placement (structures scattered over
                // the heap); per-PC hot-set sizes vary (256 B – 2 KiB) so
                // the aggregate hot working set straddles the L1
                // capacities under study.
                let slice_lo = if bytes > 2 * hot_slice {
                    rng.gen_range(0..bytes / hot_slice - 1) * hot_slice
                } else {
                    0
                };
                Role::Hot {
                    slice_lo,
                    slice_hi: (slice_lo + hot_slice).min(bytes),
                    tiny: (256 << (k % 4)).min(hot_slice / 2),
                }
            };
            statics.push(StaticMem { pc, role });
        }
        // Ensure at least one memory PC exists.
        if statics.is_empty() {
            statics.push(StaticMem {
                pc: 0x40_0000,
                role: Role::Hot { slice_lo: 0, slice_hi: hot_slice.min(bytes), tiny: 256 },
            });
        }
        let _ = rng.next_u64(); // decouple seed streams

        Ok(Self {
            statics,
            layout,
            mem_coin: Bernoulli::new(spec.mem_ratio),
            store_coin: Bernoulli::new(spec.store_ratio),
            rng,
            remaining: instructions,
            alu_rot: 0,
            load_rot: 0,
            last_alu_dst: 0,
            cur_static: 0,
            static_run_left: 0,
        })
    }

    /// The memory layout (for experiments that post-process addresses).
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Advance a paged-burst role: sequential 16-byte steps within one
    /// page, a fresh random page when the burst drains.
    fn burst_step(
        rng: &mut StdRng,
        lo: u64,
        hi: u64,
        page: &mut u64,
        step: &mut u64,
        burst_left: &mut u32,
    ) -> u64 {
        use sipt_mem::PAGE_SIZE;
        if *burst_left == 0 {
            let first_page = lo / PAGE_SIZE;
            let last_page = (hi.saturating_sub(8)) / PAGE_SIZE;
            *page = rng.gen_range(first_page..=last_page);
            *step = rng.gen_range(0..PAGE_SIZE / 8);
            *burst_left = rng.gen_range(64..=256);
        }
        *burst_left -= 1;
        let off_in_page = (*step * 8) % PAGE_SIZE;
        *step += 1;
        (*page * PAGE_SIZE + off_in_page).clamp(lo, hi - 8)
    }

    /// Generate the next instruction as a packed record, or `None` once
    /// the stream is exhausted. The only generation path: the `Iterator`
    /// impl decodes these records.
    #[inline]
    pub(crate) fn next_packed(&mut self) -> Option<PackedInst> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        Some(if self.mem_coin.sample(&mut self.rng) { self.gen_mem() } else { self.gen_alu() })
    }

    fn gen_mem(&mut self) -> PackedInst {
        if self.static_run_left == 0 {
            self.cur_static = self.rng.gen_range(0..self.statics.len());
            // Streaming kernels are tight inner loops sweeping long
            // extents back-to-back, so a streamer PC keeps issuing far
            // longer before the program moves on; irregular roles
            // (chases, hash probes, hot structures) have short bodies.
            // The asymmetry is what lets streams keep a DRAM row open
            // while a pointer chase keeps paying activations.
            self.static_run_left = match self.statics[self.cur_static].role {
                Role::Stream { .. } => self.rng.gen_range(32..=128),
                _ => self.rng.gen_range(4..=16),
            };
        }
        self.static_run_left -= 1;
        let idx = self.cur_static;
        let bytes = self.layout.bytes();
        let (pc, offset, is_chase) = {
            let s = &mut self.statics[idx];
            match &mut s.role {
                Role::Stream { cursor, stride, lo, hi } => {
                    // `cursor < span` and `stride < span` (8 vs ≥ 64), so one
                    // conditional subtract is the wrap.
                    let span = *hi - *lo;
                    let off = *lo + *cursor;
                    *cursor += *stride;
                    if *cursor >= span {
                        *cursor -= span;
                    }
                    (s.pc, off.min(bytes - 8), false)
                }
                Role::Burst { lo, hi, page, step, burst_left } => {
                    let off = Self::burst_step(&mut self.rng, *lo, *hi, page, step, burst_left);
                    (s.pc, off, false)
                }
                Role::AltBurst { lo, hi, pages, step, burst_left, toggle } => {
                    use sipt_mem::PAGE_SIZE;
                    if *burst_left == 0 {
                        let first = *lo / PAGE_SIZE;
                        let last = (hi.saturating_sub(8)) / PAGE_SIZE;
                        pages[0] = self.rng.gen_range(first..=last);
                        pages[1] = self.rng.gen_range(first..=last);
                        *step = self.rng.gen_range(0..PAGE_SIZE / 8);
                        *burst_left = self.rng.gen_range(64..=256);
                    }
                    *burst_left -= 1;
                    let page = pages[*toggle as usize];
                    *toggle = !*toggle;
                    let off_in_page = (*step * 8) % PAGE_SIZE;
                    if *toggle {
                        *step += 1; // advance once per A/B pair
                    }
                    let off = (page * PAGE_SIZE + off_in_page).clamp(*lo, *hi - 8);
                    (s.pc, off, false)
                }
                Role::Chase { lo, hi, page, step, burst_left } => {
                    let off = Self::burst_step(&mut self.rng, *lo, *hi, page, step, burst_left);
                    (s.pc, off, true)
                }
                Role::Hot { slice_lo, slice_hi, tiny } => {
                    // Most accesses hit the tiny set; the tail sweeps the
                    // whole slice (capacity-sensitive component).
                    let off = if HOT_TINY.sample(&mut self.rng) {
                        *slice_lo + (self.rng.gen_range(0..*tiny) & !7)
                    } else {
                        self.rng.gen_range(*slice_lo..*slice_hi - 8) & !7
                    };
                    (s.pc, off, false)
                }
            }
        };
        let va = self.layout.va_of(offset).raw();
        let meta = if is_chase {
            // Serialize: the address depends on the previous chased value.
            pack_meta_fields((CHASE_REG, true), [(CHASE_REG, true), (0, false)], (false, true), 1)
        } else if self.store_coin.sample(&mut self.rng) {
            pack_meta_fields((0, false), [(self.last_alu_dst, true), (0, false)], (true, true), 1)
        } else {
            let dst = LOAD_REG_BASE + (self.load_rot % LOAD_REGS);
            self.load_rot = self.load_rot.wrapping_add(1);
            // Half of the loads take their address from a recent ALU
            // result, coupling them into the dependence graph.
            let addr_reg = LOAD_ADDR_REG.sample(&mut self.rng);
            pack_meta_fields(
                (dst, true),
                [(self.last_alu_dst, addr_reg), (0, false)],
                (false, true),
                1,
            )
        };
        PackedInst { pc, meta, va }
    }

    fn gen_alu(&mut self) -> PackedInst {
        let dst = self.alu_rot % ALU_REGS;
        self.alu_rot = self.alu_rot.wrapping_add(1);
        // Short dependence chains with real ILP: 40% of ALU ops extend the
        // previous chain (mean chain length ≈ 1.7), 30% consume the most
        // recent load result, the rest are independent; 10% are
        // multiplies etc. with latency 3. The three draws happen in this
        // order whatever their outcomes: the order is part of the stream.
        let chain = ALU_CHAIN.sample(&mut self.rng);
        let load_use = ALU_LOAD_USE.sample(&mut self.rng);
        let long = ALU_LONG.sample(&mut self.rng);
        let last_load = LOAD_REG_BASE + self.load_rot.wrapping_sub(1) % LOAD_REGS;
        let meta = pack_meta_fields(
            (dst, true),
            [(self.last_alu_dst, chain), (last_load, load_use)],
            (false, false),
            1 + 2 * u64::from(long),
        );
        self.last_alu_dst = dst;
        PackedInst { pc: 0x10_0000 + dst as u64 * 4, meta, va: 0 }
    }
}

/// Scramble the buddy allocator's free lists the way long-running system
/// activity does. Pins `~3×pages` frames as uniformly random blocks of
/// `2^order` frames, then frees ~40% of them in random order: because the
/// neighbours of a freed block are mostly still pinned, the freed blocks
/// stay on the order-`order` list scattered at random positions, and the
/// workload's subsequent `2^order`-page allocations pop *random* blocks
/// instead of splitting memory sequentially. The returned blocks must be
/// freed once the workload has allocated.
fn churn_begin(
    phys: &mut BuddyAllocator,
    pages: u64,
    order: u32,
    rng: &mut StdRng,
) -> Result<Vec<sipt_mem::FrameBlock>, MemError> {
    let block_pages = 1u64 << order;
    let free = phys.free_frames();
    let grab_blocks =
        (pages * 3 / block_pages).min(free.saturating_sub(pages / 8) * 3 / 4 / block_pages);
    let scatter_blocks = (pages + pages / 4).div_ceil(block_pages).min(grab_blocks * 2 / 5);
    let mut held = Vec::with_capacity(grab_blocks as usize);
    for _ in 0..grab_blocks {
        held.push(phys.alloc_random_block(order, rng)?);
    }
    for _ in 0..scatter_blocks {
        let i = rng.gen_range(0..held.len());
        phys.free(held.swap_remove(i));
    }
    Ok(held)
}

impl Iterator for TraceGen {
    type Item = Inst;

    fn next(&mut self) -> Option<Inst> {
        let PackedInst { pc, meta, va } = self.next_packed()?;
        Some(unpack_inst_meta(meta, pc, meta_has_mem(meta).then(|| VirtAddr::new(va))))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for TraceGen {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{benchmark, BENCHMARKS};
    use sipt_cpu::MemOp;
    use sipt_mem::PlacementPolicy;

    fn build_for(name: &str, instructions: u64) -> (TraceGen, AddressSpace) {
        let spec = benchmark(name).unwrap();
        let mut phys = BuddyAllocator::with_bytes(2 << 30);
        let mut asp = AddressSpace::new(1, PlacementPolicy::LinuxDefault);
        let gen = TraceGen::build(&spec, &mut asp, &mut phys, instructions, 42).unwrap();
        (gen, asp)
    }

    #[test]
    fn generates_exactly_n_instructions() {
        let (gen, _asp) = build_for("sjeng", 10_000);
        assert_eq!(gen.count(), 10_000);
    }

    #[test]
    fn deterministic_across_builds() {
        let (gen_a, _a) = build_for("mcf", 5_000);
        let (gen_b, _b) = build_for("mcf", 5_000);
        let a: Vec<Inst> = gen_a.collect();
        let b: Vec<Inst> = gen_b.collect();
        assert_eq!(a, b);
    }

    #[test]
    fn every_memory_address_is_mapped() {
        let (gen, asp) = build_for("gcc", 20_000);
        let mut mem_ops = 0;
        for inst in gen {
            if let Some(mem) = inst.mem {
                mem_ops += 1;
                assert!(asp.translate(mem.va).is_some(), "unmapped access at {}", mem.va);
            }
        }
        assert!(mem_ops > 5_000, "gcc should be ~36% memory ops, got {mem_ops}");
    }

    #[test]
    fn mem_ratio_is_respected() {
        let spec = benchmark("hmmer").unwrap(); // mem_ratio 0.45
        let (gen, _asp) = build_for("hmmer", 50_000);
        let mem_ops = gen.filter(Inst::is_mem).count();
        let ratio = mem_ops as f64 / 50_000.0;
        assert!((ratio - spec.mem_ratio).abs() < 0.02, "ratio = {ratio}");
    }

    #[test]
    fn store_ratio_roughly_respected() {
        let (gen, _asp) = build_for("bzip2", 50_000);
        let (mut loads, mut stores) = (0u64, 0u64);
        for inst in gen {
            match inst.mem.map(|m| m.op) {
                Some(MemOp::Load) => loads += 1,
                Some(MemOp::Store) => stores += 1,
                None => {}
            }
        }
        let ratio = stores as f64 / (loads + stores) as f64;
        // Chase loads never become stores, so observed ratio ≤ spec.
        assert!((0.1..0.4).contains(&ratio), "store ratio = {ratio}");
    }

    #[test]
    fn streaming_workload_has_spatial_locality() {
        let (gen, _asp) = build_for("libquantum", 40_000);
        let mut addrs: Vec<u64> = Vec::new();
        for inst in gen {
            if let Some(mem) = inst.mem {
                addrs.push(mem.va.raw());
            }
        }
        // Count accesses that touch the same 64 B line as some earlier
        // nearby access: streaming at stride 16 revisits each line 4×.
        let mut same_line = 0;
        let mut seen = std::collections::HashSet::new();
        for a in &addrs {
            if !seen.insert(a >> 6) {
                same_line += 1;
            }
        }
        let frac = same_line as f64 / addrs.len() as f64;
        assert!(frac > 0.5, "line reuse fraction = {frac}");
    }

    #[test]
    fn stream_roles_wrap_within_their_slice() {
        // 16 streamers over 64 KiB: 4 KiB slices, so every PC wraps its
        // cursor within the trace.
        let spec = WorkloadSpec {
            footprint: 64 << 10,
            mem_ratio: 0.5,
            mix: crate::spec::PatternMix { stream: 1.0, random: 0.0, chase: 0.0 },
            alloc: AllocPattern::Burst,
            mem_pcs: 16,
            ..benchmark("hmmer").unwrap()
        };
        let mut phys = BuddyAllocator::with_bytes(1 << 30);
        let mut asp = AddressSpace::new(1, PlacementPolicy::LinuxDefault);
        let gen = TraceGen::build(&spec, &mut asp, &mut phys, 50_000, 3).unwrap();
        let base = gen.layout().va_of(0).raw();
        let slice = spec.footprint / 16;
        let mut seen = [0u64; 16];
        for inst in gen {
            let Some(mem) = inst.mem else { continue };
            let i = ((inst.pc - 0x40_0000) / 0x9E5) as usize;
            let want = slice * i as u64 + (8 * seen[i]) % slice;
            assert_eq!(mem.va.raw() - base, want, "streamer {i}, access {}", seen[i]);
            seen[i] += 1;
        }
        assert!(seen.iter().all(|&n| n > slice / 8), "every streamer wraps: {seen:?}");
    }

    #[test]
    fn chase_instructions_are_self_dependent() {
        let (gen, _asp) = build_for("mcf", 50_000);
        let chases: Vec<Inst> =
            gen.filter(|i| i.mem.is_some() && i.dst == Some(CHASE_REG)).collect();
        assert!(!chases.is_empty(), "mcf must emit pointer chases");
        for c in &chases {
            assert_eq!(c.srcs[0], Some(CHASE_REG), "chase must read its own register");
        }
    }

    #[test]
    fn incremental_allocation_creates_many_regions() {
        let spec = benchmark("calculix").unwrap();
        let mut phys = BuddyAllocator::with_bytes(2 << 30);
        let mut asp = AddressSpace::new(1, PlacementPolicy::LinuxDefault);
        let _gen = TraceGen::build(&spec, &mut asp, &mut phys, 100, 1).unwrap();
        assert!(
            asp.regions().count() > 1000,
            "single-page chunks: {} regions",
            asp.regions().count()
        );
        assert_eq!(asp.huge_page_fraction(), 0.0, "tiny chunks can never be huge");
    }

    #[test]
    fn burst_allocation_is_single_region_with_huge_pages() {
        let spec = benchmark("libquantum").unwrap();
        let mut phys = BuddyAllocator::with_bytes(2 << 30);
        let mut asp = AddressSpace::new(1, PlacementPolicy::LinuxDefault);
        let _gen = TraceGen::build(&spec, &mut asp, &mut phys, 100, 1).unwrap();
        assert_eq!(asp.regions().count(), 1);
        assert!(asp.huge_page_fraction() > 0.99);
    }

    #[test]
    fn all_benchmarks_build_in_2gib() {
        for spec in BENCHMARKS {
            let mut phys = BuddyAllocator::with_bytes(2 << 30);
            let mut asp = AddressSpace::new(1, PlacementPolicy::LinuxDefault);
            let gen = TraceGen::build(spec, &mut asp, &mut phys, 10, 7)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            assert_eq!(gen.layout().bytes(), spec.footprint.div_ceil(4096) * 4096);
            // Burst maps one region, and sub-2 MiB chunks pack back to
            // back, so every roster layout is one VA-contiguous run.
            assert_eq!(gen.layout().starts.len(), 1, "{}: runs", spec.name);
        }
    }

    /// The layout before coalescing: one entry per region, found by
    /// binary search over the regions' cumulative offsets.
    fn per_region_va_of(regions: &[Region], cumulative: &[u64], offset: u64) -> VirtAddr {
        let idx = match cumulative.binary_search(&offset) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        regions[idx].start + (offset - cumulative[idx])
    }

    /// Check `va_of` against [`per_region_va_of`] one byte either side of
    /// every page boundary; returns the layout's run count.
    fn assert_coalescing_matches_regions(spec: &WorkloadSpec) -> usize {
        let mut phys = BuddyAllocator::with_bytes(2 << 30);
        let mut asp = AddressSpace::new(1, PlacementPolicy::LinuxDefault);
        let gen = TraceGen::build(spec, &mut asp, &mut phys, 0, 1).unwrap();
        let regions: Vec<Region> = asp.regions().collect();
        let cumulative: Vec<u64> = regions
            .iter()
            .scan(0, |total, r| {
                *total += r.bytes();
                Some(*total - r.bytes())
            })
            .collect();
        let layout = gen.layout();
        let mut page = 0;
        while page <= layout.bytes() {
            for offset in [page.wrapping_sub(1), page, page + 1] {
                if offset < layout.bytes() {
                    let want = per_region_va_of(&regions, &cumulative, offset);
                    assert_eq!(layout.va_of(offset), want, "{}: offset {offset}", spec.name);
                }
            }
            page += PAGE_SIZE;
        }
        layout.starts.len()
    }

    #[test]
    fn coalesced_layout_matches_per_region_search() {
        let calculix = benchmark("calculix").unwrap();
        let runs = assert_coalescing_matches_regions(&calculix);
        assert_eq!(runs, 1, "calculix's single-page regions are VA-contiguous");
    }

    #[test]
    fn coalescing_stops_at_huge_page_alignment_gaps() {
        // 600-page chunks are huge-page eligible, so each one starts
        // 2 MiB-aligned and leaves a VA gap behind its predecessor; only
        // the short final chunk packs against the chunk before it.
        let spec = WorkloadSpec {
            footprint: 16 << 20,
            alloc: AllocPattern::Chunked { chunk_pages: 600 },
            ..benchmark("sjeng").unwrap()
        };
        let runs = assert_coalescing_matches_regions(&spec);
        assert_eq!(runs, 6, "7 chunks, the last merged into the sixth");
    }

    #[test]
    fn layout_va_of_is_monotone_within_region() {
        let (gen, _asp) = build_for("sjeng", 0);
        let l = gen.layout();
        assert_eq!(l.va_of(0).raw() + 100, l.va_of(100).raw());
    }

    #[test]
    #[should_panic(expected = "beyond layout")]
    fn layout_bounds_checked() {
        let (gen, _asp) = build_for("sjeng", 0);
        let _ = gen.layout().va_of(u64::MAX);
    }
}
