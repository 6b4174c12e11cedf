//! Quickstart: boot a simulated Lenovo T420, run a scaled-down PThammer
//! attack as an unprivileged process and report what happened.
//!
//! Run with: `cargo run --release --example quickstart`

use pthammer::{AttackConfig, PtHammer, RunOptions};
use pthammer_dram::FlipModelProfile;
use pthammer_kernel::System;
use pthammer_machine::MachineConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A Table I machine with a "fast" weak-cell profile so the example
    // finishes quickly; use FlipModelProfile::paper() for the full-scale run.
    let machine = MachineConfig::lenovo_t420(FlipModelProfile::fast(), 42);
    let mut system = System::undefended(machine);
    let pid = system.spawn_process(1000)?;
    println!(
        "booted {} — attacker pid {pid}, uid {}",
        system.machine().config().name,
        system.getuid(pid)?
    );

    let config = AttackConfig {
        spray_bytes: 1 << 30,
        hammer_rounds_per_attempt: 2_500,
        max_attempts: 12,
        ..AttackConfig::quick_test(42, false)
    };
    let attack = PtHammer::new(config)?;
    println!("running PThammer (this simulates every TLB/LLC eviction and DRAM access)...");
    let outcome = attack.run_with(&mut system, pid, RunOptions::new())?;

    println!("\n--- outcome ---");
    println!("machine            : {}", outcome.machine);
    println!("page setting       : {}", outcome.page_setting);
    println!("hammer attempts    : {}", outcome.attempts);
    println!(
        "bit flips observed : {} ({} exploitable)",
        outcome.flips_observed, outcome.exploitable_flips
    );
    println!(
        "implicit DRAM rate : {:.1}% of hammer blows reached DRAM",
        outcome.implicit_dram_rate * 100.0
    );
    if let Some(minutes) = outcome.minutes_to_first_flip() {
        println!("first flip after   : {minutes:.3} simulated minutes");
    }
    println!(
        "escalated to root  : {} (uid {} -> {})",
        outcome.escalated, outcome.uid_before, outcome.uid_after
    );
    if let Some(victory) = outcome.victim_outcome {
        println!("escalation route   : {}", victory.route_label());
    }
    Ok(())
}
