//! The paper's headline result (Section IV-F): an unprivileged process uses
//! implicit page-table-walk accesses to flip a bit in a Level-1 page-table
//! entry, captures another page table through the corrupted mapping, maps its
//! own `struct cred` and becomes root. This example runs the attack pipeline
//! (`Prepare → PairSelect → Hammer → Detect → Exploit`) with an event sink
//! that prints what each stage produced: the pools and the spray, the
//! victim's profile, every attempt's pair verification and hammer result,
//! each corrupted mapping found and each victim attack.
//!
//! Run with: `cargo run --release --example privilege_escalation`

use pthammer::{AttackConfig, AttackEvent, EventSink, PtHammer, RunOptions};
use pthammer_dram::FlipModelProfile;
use pthammer_kernel::System;
use pthammer_machine::MachineConfig;

/// Prints the attack's events as the pipeline emits them.
struct Narrator;

impl EventSink for Narrator {
    fn on_event(&mut self, event: &AttackEvent) {
        match event {
            AttackEvent::PoolsPrepared {
                tlb_pool_cycles,
                llc_pool_cycles,
                l1pt_count,
            } => println!(
                "    TLB pool: {tlb_pool_cycles} cycles, LLC pool: {llc_pool_cycles} cycles, \
                 spray: {l1pt_count} Level-1 page tables"
            ),
            AttackEvent::VictimProfiled {
                victim, targets, ..
            } => println!(
                "[*] victim `{victim}` profiled ({targets} targeted flips: the spray makes any \
                 exploitable flip usable)"
            ),
            AttackEvent::AttemptStarted { attempt, pair, .. } => println!(
                "[{attempt:02}] pair {:#x}/{:#x}",
                pair.low.as_u64(),
                pair.high.as_u64()
            ),
            AttackEvent::PairVerified {
                verification,
                accepted,
            } => {
                let latency = verification.map_or(String::new(), |v| {
                    format!(" (median {} cycles)", v.median_high_latency)
                });
                if *accepted {
                    println!("     same bank{latency}: hammering");
                } else {
                    println!("     not same-bank{latency}: skipping");
                }
            }
            AttackEvent::HammerFinished { stats, .. } => println!(
                "     hammered {} rounds, avg {:.0} cycles/round, {:.0}% implicit DRAM hits",
                stats.rounds,
                stats.avg_round_cycles(),
                stats.low_dram_rate() * 100.0
            ),
            AttackEvent::FlipObserved { finding, .. } => println!(
                "     corrupted mapping at {} -> {:?}",
                finding.vaddr, finding.kind
            ),
            AttackEvent::VictimAttacked { outcome, .. } => println!(
                "     victim `{}` attacked the finding: {}",
                outcome.victim,
                if outcome.success { "success" } else { "failed" }
            ),
            _ => {}
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let machine = MachineConfig::lenovo_t420(FlipModelProfile::fast(), 7);
    let mut sys = System::undefended(machine);
    let pid = sys.spawn_process(1000)?;
    println!("[*] attacker uid: {}", sys.getuid(pid)?);

    let config = AttackConfig {
        spray_bytes: 1 << 30,
        hammer_rounds_per_attempt: 2_500,
        max_attempts: 16,
        ..AttackConfig::quick_test(7, false)
    };
    let attack = PtHammer::new(config)?;

    println!("[*] building TLB and LLC eviction pools and spraying page tables...");
    let outcome = attack.run_with(&mut sys, pid, RunOptions::new().observed_by(&mut Narrator))?;
    match outcome.victim_outcome {
        Some(victory) if outcome.escalated => {
            println!("[+] privilege escalation via {}", victory.route_label());
            println!("[+] uid {} -> {}", outcome.uid_before, outcome.uid_after);
            println!(
                "[+] time to exploit: {} hammer iterations",
                outcome.hammer_iterations
            );
        }
        _ => println!("[-] no exploitable flip within the attempt budget (try a different seed)"),
    }
    Ok(())
}
