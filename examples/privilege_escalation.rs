//! The paper's headline result (Section IV-F): an unprivileged process uses
//! implicit page-table-walk accesses to flip a bit in a Level-1 page-table
//! entry, captures another page table through the corrupted mapping, maps its
//! own `struct cred` and becomes root. This example walks through the stages
//! explicitly — including the victim lifecycle (`profile → evaluate →
//! attack`) the pipeline's `Exploit` phase drives — and prints what each one
//! produced.
//!
//! Run with: `cargo run --release --example privilege_escalation`

use pthammer::{
    detect::scan_for_corrupted_mappings,
    pairs::{candidate_pairs, conflict_threshold},
    victim::{ExploitCtx, PteTakeover},
    AttackConfig, CompiledTrace, HammerMode, PtHammer, Victim,
};
use pthammer_dram::FlipModelProfile;
use pthammer_kernel::System;
use pthammer_machine::MachineConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let machine = MachineConfig::lenovo_t420(FlipModelProfile::fast(), 7);
    let mut sys = System::undefended(machine);
    let pid = sys.spawn_process(1000)?;
    let uid = sys.getuid(pid)?;
    println!("[*] attacker uid: {uid}");

    let config = AttackConfig {
        spray_bytes: 1 << 30,
        hammer_rounds_per_attempt: 2_500,
        max_attempts: 16,
        eviction_buffer_factor: 1.25,
        ..AttackConfig::quick_test(7, false)
    };
    let attack = PtHammer::new(config.clone())?;

    println!("[*] building TLB and LLC eviction pools and spraying page tables...");
    let prepared = attack.prepare(&mut sys, pid)?;
    println!(
        "    TLB pool: {} cycles, LLC pool: {} cycles, spray: {} Level-1 page tables",
        prepared.tlb_pool.prep_cycles(),
        prepared.llc_pool.prep_cycles(),
        prepared.spray.l1pt_count()
    );

    let row_span = sys.machine().config().dram.geometry.row_span_bytes();
    let threshold = conflict_threshold(&sys);
    let mut rng = StdRng::seed_from_u64(7);

    // The victim lifecycle the pipeline's `Exploit` phase drives: profile
    // once, then evaluate/attack per finding.
    let mut victim = PteTakeover;
    let flip_profile = victim.profile(&sys, pid)?;
    println!(
        "[*] victim `{}` profiled ({} targeted flips: the spray makes any exploitable flip usable)",
        victim.name(),
        flip_profile.targets.len()
    );

    // The paper's strategy: eviction sets for both targets, then the
    // row-buffer-conflict timing gate.
    let strategy = HammerMode::ImplicitDoubleSided.strategy();
    let ops = strategy.round_ops();
    let mut rounds_hammered = 0;
    for attempt in 1..=config.max_attempts {
        let pair = candidate_pairs(&prepared.spray, row_span, 1, &mut rng)[0];
        let arm = strategy.arm(&mut sys, pid, pair, &prepared, &config, threshold)?;
        let Some(armed) = arm.armed else {
            println!(
                "[{attempt:02}] pair {:#x}/{:#x}: not same-bank, skipping",
                pair.low.as_u64(),
                pair.high.as_u64()
            );
            continue;
        };
        let mut trace = CompiledTrace::compile(&armed, ops, &sys, pid)?;
        let rounds = config.hammer_rounds_per_attempt;
        let stats = trace.hammer(&armed, ops, &mut sys, pid, rounds, |_| {})?;
        rounds_hammered += stats.rounds;
        println!(
            "[{attempt:02}] hammered {} rounds, avg {:.0} cycles/round, {:.0}% implicit DRAM hits",
            stats.rounds,
            stats.avg_round_cycles(),
            stats.low_dram_rate() * 100.0
        );
        let (findings, _) =
            scan_for_corrupted_mappings(&mut sys, pid, &prepared.spray, &pair, row_span)?;
        for finding in &findings {
            println!(
                "     corrupted mapping at {} -> {:?}",
                finding.vaddr, finding.kind
            );
            let verdict = victim.evaluate(&flip_profile, finding);
            if !verdict.is_usable() {
                println!("     victim rejected the finding: {verdict:?}");
                continue;
            }
            let exploit = ExploitCtx {
                tlb_pool: &prepared.tlb_pool,
                spray: &prepared.spray,
                attacker_uid: uid,
                hammer_iterations: rounds_hammered,
            };
            let outcome = victim.attack(&mut sys, pid, &exploit, finding)?;
            if outcome.success {
                let escalated = outcome.escalated_pid().expect("escalation victim");
                println!("[+] privilege escalation via {}", outcome.route_label());
                println!("[+] getuid({escalated}) = {}", sys.getuid(escalated)?);
                println!("[+] time to exploit: {rounds_hammered} hammer iterations");
                return Ok(());
            }
        }
    }
    println!("[-] no exploitable flip within the attempt budget (try a different seed)");
    Ok(())
}
