//! The packed metadata word round-trips: `pack_meta_fields` and
//! `unpack_meta_fields` are inverses over every valid field tuple, and
//! `pack_inst_meta` re-packs any decoded word to itself.

use proptest::prelude::*;
use sipt_cpu::{
    meta_has_mem, pack_inst_meta, pack_meta_fields, unpack_inst_meta, unpack_meta_fields, Reg,
    NUM_REGS,
};
use sipt_mem::VirtAddr;

/// A `(register, present)` field: a valid register when present, any
/// byte when absent (an absent field packs to zero whatever it holds).
fn field() -> impl Strategy<Value = (Reg, bool)> {
    (any::<u8>(), any::<bool>()).prop_map(|(r, present)| {
        if present {
            (r % NUM_REGS as u8, true)
        } else {
            (r, false)
        }
    })
}

proptest! {
    #[test]
    fn fields_round_trip(
        dst in field(),
        src0 in field(),
        src1 in field(),
        mem in (any::<bool>(), any::<bool>()),
        latency in 1u64..=255,
    ) {
        let meta = pack_meta_fields(dst, [src0, src1], mem, latency);
        let present = |(r, p): (Reg, bool)| p.then_some(r);
        let (is_store, has_mem) = mem;
        prop_assert_eq!(
            unpack_meta_fields(meta),
            (present(dst), [present(src0), present(src1)], has_mem.then_some(is_store), latency)
        );
        prop_assert_eq!(meta_has_mem(meta), has_mem);
        prop_assert_eq!(meta >> 31, 0, "bit 31 is unused");
    }

    #[test]
    fn every_packed_word_repacks_to_itself(
        dst in field(),
        src0 in field(),
        src1 in field(),
        mem in (any::<bool>(), any::<bool>()),
        latency in 1u64..=255,
        pc in any::<u64>(),
        va in any::<u64>(),
    ) {
        let meta = pack_meta_fields(dst, [src0, src1], mem, latency);
        let inst = unpack_inst_meta(meta, pc, meta_has_mem(meta).then(|| VirtAddr::new(va)));
        prop_assert_eq!(pack_inst_meta(&inst), meta);
    }
}

#[test]
#[should_panic(expected = "register 64 out of range")]
fn out_of_range_dst_panics() {
    let _ = pack_meta_fields((64, true), [(0, false); 2], (false, false), 1);
}

#[test]
#[should_panic(expected = "register 200 out of range")]
fn out_of_range_first_source_panics() {
    let _ = pack_meta_fields((0, false), [(200, true), (0, false)], (false, false), 1);
}

#[test]
#[should_panic(expected = "register 255 out of range")]
fn out_of_range_second_source_panics() {
    let _ = pack_meta_fields((0, false), [(0, false), (255, true)], (false, false), 1);
}

#[test]
#[should_panic(expected = "does not fit")]
fn zero_latency_panics() {
    let _ = pack_meta_fields((1, true), [(0, false); 2], (false, false), 0);
}

#[test]
#[should_panic(expected = "does not fit")]
fn oversized_latency_panics() {
    let _ = pack_meta_fields((1, true), [(0, false); 2], (false, false), 256);
}

#[test]
#[should_panic(expected = "register 64 out of range")]
fn inst_with_out_of_range_register_panics() {
    let _ = pack_inst_meta(&sipt_cpu::Inst::alu(0, 1, [None, Some(64)]));
}
