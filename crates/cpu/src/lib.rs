#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # sipt-cpu — trace-driven core timing models
//!
//! The stand-in for the paper's Macsim simulator: two timing models that
//! replay an instruction trace against a pluggable [`MemoryPath`] (the
//! machine's TLB + SIPT L1 + lower hierarchy):
//!
//! - [`simulate_ooo`]: 6-wide, 192-entry-ROB out-of-order model
//!   (timestamp dataflow with fetch/commit width, ROB occupancy, and L1
//!   port contention),
//! - [`simulate_inorder`]: 2-wide scoreboarded in-order model
//!   (stall-at-use).
//!
//! Both charge SIPT's replayed accesses as extra L1 port occupancy via
//! [`MemResponse::port_slots`], reproducing the paper's "slow access …
//! contends for the L1 cache port" cost.
//!
//! ```
//! use sipt_cpu::{simulate_ooo, OooConfig, Inst, FixedMemory};
//! use sipt_mem::VirtAddr;
//!
//! let trace: Vec<Inst> =
//!     (0..100).map(|i| Inst::load(i, 1, None, VirtAddr::new(0x1000 + i * 64))).collect();
//! let result = simulate_ooo(OooConfig::default(), trace, &mut FixedMemory { latency: 4 });
//! assert_eq!(result.instructions, 100);
//! assert!(result.ipc() > 0.0);
//! ```

pub mod inorder;
pub mod ooo;
pub mod trace;

pub use inorder::{simulate_inorder, InOrderConfig, InOrderEngine};
pub use ooo::{simulate_ooo, OooConfig, OooEngine, RUN_FAST_MIN};
pub use trace::{
    meta_has_mem, pack_inst_meta, pack_meta_fields, unpack_inst_meta, unpack_meta_fields,
    CoreResult, FixedMemory, Inst, MemOp, MemRef, MemResponse, MemoryPath, Reg, META_HAS_MEM,
    NUM_REGS,
};
