//! Parallel-vs-serial engine equivalence (the ISSUE's acceptance test):
//! the same 4-channel, 4-thread mix must produce bit-identical per-thread
//! latency/bandwidth statistics and per-channel command logs whether the
//! channels run serially or sharded across worker threads — and every
//! logged command stream must be clean under the independent DDR2
//! protocol checker.

use fqms_dram::checker::ProtocolChecker;
use fqms_memctrl::engine::{
    simulate_parallel, simulate_serial, synthetic_workload, EngineReport, EngineSpec,
};
use fqms_memctrl::policy::SchedulerKind;

fn four_channel_spec(kind: SchedulerKind) -> EngineSpec {
    let mut spec = EngineSpec::paper(4, 4);
    spec.config.scheduler = kind;
    spec.epoch_cycles = 512;
    spec.log_capacity = Some(1_000_000);
    // Observers attached: the bit-identity guarantee must extend to the
    // recorded event streams and merged metrics (ISSUE acceptance).
    spec.event_capacity = Some(1_000_000);
    spec
}

fn four_channel_mix(seed: u64) -> Vec<fqms_memctrl::engine::SubmitEvent> {
    synthetic_workload(4, 4_000, 0.5, seed)
}

fn assert_bit_identical(serial: &EngineReport, parallel: &EngineReport, label: &str) {
    // Field-by-field first for diagnosable failures, then the full struct.
    assert_eq!(serial.cycles, parallel.cycles, "{label}: cycles");
    for (t, (s, p)) in serial
        .per_thread
        .iter()
        .zip(&parallel.per_thread)
        .enumerate()
    {
        assert_eq!(s, p, "{label}: thread {t} stats diverged");
    }
    assert_eq!(
        serial.completions, parallel.completions,
        "{label}: completions"
    );
    assert_eq!(
        serial.command_logs, parallel.command_logs,
        "{label}: command logs"
    );
    let (s_obs, p_obs) = (
        serial.observations.as_ref().unwrap(),
        parallel.observations.as_ref().unwrap(),
    );
    for (ch, (s, p)) in s_obs
        .event_streams
        .iter()
        .zip(&p_obs.event_streams)
        .enumerate()
    {
        assert!(!s.overflowed(), "{label}: ch{ch} serial stream overflowed");
        for (i, (se, pe)) in s.iter().zip(p.iter()).enumerate() {
            assert_eq!(se, pe, "{label}: ch{ch} event {i} diverged");
        }
        assert_eq!(s.len(), p.len(), "{label}: ch{ch} stream lengths");
    }
    assert_eq!(s_obs.metrics, p_obs.metrics, "{label}: merged metrics");
    assert_eq!(serial, parallel, "{label}: full report");
}

#[test]
fn four_channel_four_thread_mix_is_bit_identical() {
    let spec = four_channel_spec(SchedulerKind::FqVftf);
    let events = four_channel_mix(2006);
    let serial = simulate_serial(&spec, &events).unwrap();
    assert_eq!(serial.unsubmitted, 0, "mix failed to drain");
    assert_eq!(serial.total_completed(), events.len());
    for workers in [2, 4, 7] {
        let parallel = simulate_parallel(&spec, &events, workers).unwrap();
        assert_bit_identical(&serial, &parallel, &format!("{workers} workers"));
    }
}

#[test]
fn equivalence_holds_for_every_scheduler() {
    for kind in SchedulerKind::all() {
        let spec = four_channel_spec(kind);
        let events = four_channel_mix(99);
        let serial = simulate_serial(&spec, &events).unwrap();
        let parallel = simulate_parallel(&spec, &events, 4).unwrap();
        assert_bit_identical(&serial, &parallel, kind.name());
    }
}

#[test]
fn parallel_command_streams_are_protocol_clean() {
    // Satellite: DDR2 legality of what the sharded engine issues, per
    // channel, under all four schedulers, on seeded random workloads.
    for kind in SchedulerKind::all() {
        for seed in [1u64, 17, 4242] {
            let spec = four_channel_spec(kind);
            let events = synthetic_workload(4, 2_500, 0.6, seed);
            let report = simulate_parallel(&spec, &events, 4).unwrap();
            assert_eq!(report.command_logs.len(), 4);
            for (ch, log) in report.command_logs.iter().enumerate() {
                assert_eq!(
                    log.total_recorded(),
                    log.len() as u64,
                    "log overflowed; legality check would be partial"
                );
                let mut checker = ProtocolChecker::new(spec.timing);
                for rec in log.iter() {
                    checker.check(rec.cycle, &rec.cmd);
                }
                assert!(
                    checker.commands_checked() > 50,
                    "{kind} ch{ch}: thin stream"
                );
                assert!(
                    checker.is_clean(),
                    "{kind} seed {seed} ch{ch}: {:?}",
                    checker.violations().first()
                );
            }
        }
    }
}

#[test]
fn per_thread_latency_and_bandwidth_stats_survive_merge() {
    // The merged per-thread stats must equal the sum of the per-channel
    // contributions implicit in the completions: reads+writes completed
    // equals the number of events, and every thread saw service.
    let spec = four_channel_spec(SchedulerKind::FqVftf);
    let events = four_channel_mix(7);
    let report = simulate_parallel(&spec, &events, 4).unwrap();
    let completed: u64 = report
        .per_thread
        .iter()
        .map(|s| s.reads_completed + s.writes_completed)
        .sum();
    assert_eq!(completed as usize, events.len());
    for (t, s) in report.per_thread.iter().enumerate() {
        assert!(s.reads_completed > 0, "thread {t} completed no reads");
        assert!(s.read_latency_total > 0, "thread {t} has no latency mass");
        assert!(s.bus_busy_cycles > 0, "thread {t} moved no data");
    }
}
