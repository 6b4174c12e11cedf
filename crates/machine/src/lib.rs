//! Simulated machine composition for the PThammer reproduction.
//!
//! Glues the substrates together into the machines of Table I: sparse
//! physical memory, the DRAM model, the cache hierarchy, the MMU and a
//! simulated cycle clock. The [`Machine`] type exposes the user-level
//! operations the simulated attacker is allowed to perform (timed virtual
//! accesses, `clflush`, `rdtsc`) and the privileged operations the kernel
//! substrate needs (physical reads/writes, TLB shoot-downs), plus an
//! evaluation [`oracle`] that mirrors the kernel module the paper uses to
//! verify its attack steps.
//!
//! # Examples
//!
//! ```
//! use pthammer_machine::{Machine, MachineConfig};
//! use pthammer_dram::FlipModelProfile;
//!
//! let machine = Machine::new(MachineConfig::lenovo_t420(FlipModelProfile::paper(), 42));
//! assert_eq!(machine.config().name, "Lenovo T420");
//! assert_eq!(machine.rdtsc(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod choice;
mod config;
mod footprint;
mod machine;
mod memory;
pub mod oracle;
mod phys_mem;

pub use choice::MachineChoice;
pub use config::MachineConfig;
pub use footprint::{DramRecord, FastRoundGuard, Footprint};
pub use machine::{Machine, TouchAccess, VirtualAccess};
pub use memory::MemorySubsystem;
pub use oracle::{
    dram_location, l1pte_paddr, llc_location, same_bank, software_walk, SoftwareWalk,
};
pub use phys_mem::{AppliedFlip, PhysicalMemory};
