//! End-to-end service tests: the robustness contract of `pfserve`.
//!
//! The load-bearing one is the determinism test: ≥1000 concurrent
//! chaos-mode tenants (fault injection + forced panics) processed at
//! different worker counts must produce byte-identical per-tenant advice
//! streams, and the surviving tenants must match a sequential no-chaos
//! baseline. That is the cross-tenant-isolation guarantee the CI chaos
//! job re-checks from the outside.

use prefetch_core::policy::RefKind;
use prefetch_serve::loadgen::{generate, Fate, LoadgenOpts};
use prefetch_serve::{AdmissionConfig, ServeOpts, Service, TenantDefaults, TenantSpec, WalOpts};
use prefetch_sim::{SimEvent, SimMetrics, SimObserver, Simulator};
use prefetch_trace::synth::TraceKind;
use prefetch_trace::{BlockId, TraceRecord};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// `prefetch_pool::set_threads` is a process-global knob; tests that
/// touch it serialize here so they cannot fight over it.
static KNOB: Mutex<()> = Mutex::new(());

fn lock_knob() -> std::sync::MutexGuard<'static, ()> {
    KNOB.lock().unwrap_or_else(|e| e.into_inner())
}

/// Feed a script through a fresh service in `chunk`-line batches and
/// return every response line plus the drained service.
fn run_script(lines: &[String], opts: ServeOpts, chunk: usize) -> (Vec<String>, Vec<String>) {
    let mut service = Service::new(opts).expect("service init");
    let mut responses = Vec::new();
    for batch in lines.chunks(chunk) {
        let tagged: Vec<(u64, String)> = batch.iter().map(|l| (0, l.clone())).collect();
        for (_, line) in service.process_batch(&tagged) {
            responses.push(line);
        }
        if service.shutdown_requested() {
            break;
        }
    }
    let finals = service.drain();
    (responses, finals)
}

/// Group `ADV` response lines by tenant, preserving per-tenant order.
fn advice_by_tenant(responses: &[String]) -> BTreeMap<String, Vec<String>> {
    let mut by_tenant: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for line in responses {
        if let Some(rest) = line.strip_prefix("ADV ") {
            let tenant = rest.split_ascii_whitespace().next().unwrap().to_string();
            by_tenant.entry(tenant).or_default().push(line.clone());
        }
    }
    by_tenant
}

fn open(tenant: &str) -> (u64, String) {
    (0, format!("OPEN {tenant}"))
}

fn ev(tenant: &str, block: u64) -> (u64, String) {
    (0, format!("EV {tenant} {block}"))
}

#[test]
fn a_thousand_chaos_tenants_are_deterministic_at_any_worker_count() {
    let _knob = lock_knob();
    let opts = LoadgenOpts {
        tenants: 1040,
        events_per_tenant: 12,
        slice: 4,
        phase_len: 5,
        seed: 7,
        chaos: true,
        shutdown: true,
    };
    let chaos = generate(&opts);
    let baseline = generate(&LoadgenOpts { chaos: false, ..opts });
    assert!(chaos.manifest.iter().filter(|(_, f)| *f == Fate::Panicked).count() >= 50);
    assert!(chaos.manifest.iter().filter(|(_, f)| *f == Fate::Faulty).count() >= 100);

    let serve_opts = ServeOpts { echo_advice: true, ..ServeOpts::default() };

    prefetch_pool::set_threads(1);
    let (seq_chaos, seq_finals) = run_script(&chaos.lines, serve_opts.clone(), 64);
    let (seq_base, _) = run_script(&baseline.lines, serve_opts.clone(), 64);
    prefetch_pool::set_threads(4);
    let (par_chaos, par_finals) = run_script(&chaos.lines, serve_opts.clone(), 64);
    prefetch_pool::set_threads(0);

    // 1. Any worker count yields byte-identical per-tenant advice.
    let seq_advice = advice_by_tenant(&seq_chaos);
    let par_advice = advice_by_tenant(&par_chaos);
    assert_eq!(seq_advice, par_advice, "worker count must not change any tenant's advice");

    // 2. No cross-tenant interference: every tenant that was clean under
    //    chaos matches the sequential no-chaos baseline byte-for-byte.
    let base_advice = advice_by_tenant(&seq_base);
    let mut clean = 0;
    for (tenant, fate) in &chaos.manifest {
        if *fate != Fate::Clean {
            continue;
        }
        clean += 1;
        assert_eq!(
            seq_advice.get(tenant),
            base_advice.get(tenant),
            "chaos around clean tenant {tenant} leaked into its advice"
        );
    }
    assert!(clean >= 800, "need a meaningful clean population, got {clean}");

    // 3. Forced panics became quarantines with typed reports, and the
    //    drain covers every quarantined tenant exactly once.
    let panicked: Vec<&str> = chaos
        .manifest
        .iter()
        .filter(|(_, f)| *f == Fate::Panicked)
        .map(|(t, _)| t.as_str())
        .collect();
    for tenant in &panicked {
        assert!(
            seq_chaos.iter().any(|l| l.starts_with(&format!("PANIC {tenant} quarantined"))),
            "{tenant} must report its quarantine"
        );
        assert!(
            seq_finals
                .iter()
                .any(|l| l.starts_with(&format!("FINAL {tenant} "))
                    && l.contains("quarantined=true")),
            "{tenant} must appear quarantined in the drain"
        );
    }
    assert_eq!(seq_finals, par_finals, "drain reports must be deterministic too");
    assert!(seq_finals.last().unwrap().starts_with("BYE "));
}

#[test]
fn admission_rejections_are_typed() {
    let opts = ServeOpts {
        admission: AdmissionConfig { max_tenants: 2, memory_budget_bytes: None },
        ..ServeOpts::default()
    };
    let mut service = Service::new(opts).unwrap();
    let out = service.process_batch(&[open("a"), open("b"), open("c")]);
    let lines: Vec<&str> = out.iter().map(|(_, l)| l.as_str()).collect();
    assert_eq!(lines, vec!["OK open a", "OK open b", "REJECT c tenant-limit limit=2"]);

    // Closing frees the slot for a new admission.
    let out = service.process_batch(&[(0, "CLOSE a".into()), open("c")]);
    assert!(out[0].1.starts_with("FINAL a "));
    assert_eq!(out[1].1, "OK open c");

    // A memory budget too small for even one tenant rejects with the
    // requested/available accounting.
    let tight = ServeOpts {
        admission: AdmissionConfig { max_tenants: 100, memory_budget_bytes: Some(1024) },
        ..ServeOpts::default()
    };
    let mut service = Service::new(tight).unwrap();
    let out = service.process_batch(&[open("big")]);
    assert!(out[0].1.starts_with("REJECT big memory-budget requested="), "got {:?}", out[0].1);

    // Duplicate opens and unknown tenants are typed, not fatal.
    let mut service = Service::new(ServeOpts::default()).unwrap();
    let out = service.process_batch(&[open("a"), open("a"), ev("ghost", 1)]);
    assert_eq!(out[1].1, "REJECT a duplicate");
    assert_eq!(out[2].1, "REJECT ghost unknown-tenant");

    // Bad OPEN options are typed config rejections.
    let out = service.process_batch(&[(0, "OPEN weird cache=0".into())]);
    assert!(out[0].1.starts_with("REJECT weird bad-config"), "got {:?}", out[0].1);
}

#[test]
fn overload_sheds_with_backpressure_responses() {
    let opts = ServeOpts { queue_cap: 4, ..ServeOpts::default() };
    let mut service = Service::new(opts).unwrap();
    let mut batch = vec![open("t")];
    for b in 0..10u64 {
        batch.push(ev("t", b));
    }
    let out = service.process_batch(&batch);
    let sheds = out.iter().filter(|(_, l)| l.starts_with("SHED t queue-full")).count();
    let advs = out.iter().filter(|(_, l)| l.starts_with("ADV t ")).count();
    assert_eq!(sheds, 6);
    assert_eq!(advs, 4);
    assert_eq!(service.stats.sheds, 6);

    // The tenant survives overload; its report counts the shed events.
    let out = service.process_batch(&[(0, "STATS t".into())]);
    assert!(out[0].1.contains("events=4") && out[0].1.contains("shed=6"), "got {:?}", out[0].1);
}

#[test]
fn malformed_lines_are_skipped_never_fatal() {
    let mut service = Service::new(ServeOpts::default()).unwrap();
    let out = service.process_batch(&[
        open("t"),
        (0, "EV t not-a-number".into()),
        (0, "FROB t 1".into()),
        (0, "EV t".into()),
        (0, "# a comment".into()),
        (0, "".into()),
        ev("t", 3),
    ]);
    let errs = out.iter().filter(|(_, l)| l.starts_with("ERR parse ")).count();
    assert_eq!(errs, 3);
    assert_eq!(service.stats.parse_errors, 3);
    assert!(out.last().unwrap().1.starts_with("ADV t 0 "));

    // Attributable garbage is charged to the tenant's skip counter.
    let out = service.process_batch(&[(0, "STATS t".into())]);
    assert!(out[0].1.contains("skipped=2"), "got {:?}", out[0].1);
}

#[test]
fn a_panicking_tenant_is_quarantined_and_never_resurrected() {
    let mut service = Service::new(ServeOpts::default()).unwrap();
    let mut control = Service::new(ServeOpts::default()).unwrap();

    let blocks = [5u64, 6, 7, 5, 6, 7, 5, 6];
    let mut batch = vec![open("victim"), open("bystander")];
    for &b in &blocks {
        batch.push(ev("victim", b));
        batch.push(ev("bystander", b));
    }
    // Arm the chaos hook mid-stream, then keep sending events.
    batch.push((0, "PANIC victim".into()));
    batch.push(ev("victim", 9));
    batch.push(ev("victim", 10));
    batch.push(ev("bystander", 9));
    let out = service.process_batch(&batch);
    let lines: Vec<&str> = out.iter().map(|(_, l)| l.as_str()).collect();

    // The victim delivered its pre-panic advice, then one typed PANIC
    // report, then typed rejections for what was left in its queue.
    assert_eq!(lines.iter().filter(|l| l.starts_with("ADV victim ")).count(), blocks.len());
    assert_eq!(lines.iter().filter(|l| l.starts_with("PANIC victim quarantined err=")).count(), 1);
    assert!(lines.contains(&"REJECT victim quarantined"));
    assert_eq!(service.stats.quarantined, 1);
    let first_batch: Vec<String> = out.iter().map(|(_, l)| l.clone()).collect();

    // Never silently resurrected: events and re-opens stay refused.
    let out = service.process_batch(&[ev("victim", 1), open("victim"), (0, "STATS victim".into())]);
    for (_, line) in &out {
        assert_eq!(line, "REJECT victim quarantined");
    }

    // The bystander's advice is byte-identical to a run where the victim
    // never existed.
    let mut solo = vec![open("bystander")];
    for &b in &blocks {
        solo.push(ev("bystander", b));
    }
    solo.push(ev("bystander", 9));
    let control_out = control.process_batch(&solo);
    let seen = advice_by_tenant(&first_batch);
    let want = advice_by_tenant(&control_out.iter().map(|(_, l)| l.clone()).collect::<Vec<_>>());
    assert_eq!(seen["bystander"], want["bystander"]);

    // The drain reports both: the survivor normally, the victim with its
    // retained counters and the quarantine flag.
    let finals = service.drain();
    assert!(finals
        .iter()
        .any(|l| l.starts_with("FINAL bystander ") && l.contains("quarantined=false")));
    let victim_final = finals
        .iter()
        .find(|l| l.starts_with("FINAL victim "))
        .expect("quarantined tenant must still be drained");
    assert!(victim_final.contains("quarantined=true"), "got {victim_final:?}");
    assert!(victim_final.contains(&format!("events={}", blocks.len())));
    assert!(finals.last().unwrap().starts_with("BYE "));
}

#[test]
fn shutdown_drains_with_complete_reports() {
    let mut service = Service::new(ServeOpts::default()).unwrap();
    let out = service.process_batch(&[
        open("a"),
        open("b"),
        ev("a", 1),
        ev("b", 2),
        (0, "SHUTDOWN".into()),
    ]);
    assert!(service.shutdown_requested());
    // SHUTDOWN flushes queued events before acknowledging.
    let lines: Vec<&str> = out.iter().map(|(_, l)| l.as_str()).collect();
    let adv_a = lines.iter().position(|l| l.starts_with("ADV a ")).unwrap();
    let ok = lines.iter().position(|l| *l == "OK shutdown").unwrap();
    assert!(adv_a < ok, "advice must precede the shutdown ack");

    let finals = service.drain();
    assert_eq!(finals.iter().filter(|l| l.starts_with("FINAL ")).count(), 2);
    let bye = finals.last().unwrap();
    assert!(bye.starts_with("BYE tenants=2 events=2 "), "got {bye:?}");
}

#[test]
fn stats_and_close_observe_queued_events_in_order() {
    let mut service = Service::new(ServeOpts::default()).unwrap();
    // STATS after two queued events must already see them (the service
    // flushes the tenant's queue inline to keep request order).
    let out = service.process_batch(&[open("t"), ev("t", 1), ev("t", 2), (0, "STATS t".into())]);
    let stats = &out.iter().find(|(_, l)| l.starts_with("STATS t ")).unwrap().1;
    assert!(stats.contains("events=2"), "got {stats:?}");

    // A tenant verb with a trailing field is a malformed line charged to
    // that tenant, not the verb applied to it.
    let out = service.process_batch(&[(0, "CLOSE t now".into()), (0, "STATS t".into())]);
    assert_eq!(out[0].1, "ERR parse CLOSE takes exactly a tenant");
    assert!(out[1].1.contains(" events=2 skipped=1 "), "got {:?}", out[1].1);

    let out = service.process_batch(&[ev("t", 3), (0, "CLOSE t".into())]);
    let fin = &out.iter().find(|(_, l)| l.starts_with("FINAL t ")).unwrap().1;
    assert!(fin.contains("events=3"), "got {fin:?}");

    // Closed is not quarantined: the name can be reopened fresh.
    let out = service.process_batch(&[open("t"), ev("t", 4)]);
    assert_eq!(out[0].1, "OK open t");
    assert!(out[1].1.starts_with("ADV t 0 "), "reopened tenant restarts its sequence");

    // The same transitions inside one batch. An event behind a CLOSE is
    // for a tenant that no longer exists...
    let out = service.process_batch(&[ev("t", 5), (0, "CLOSE t".into()), ev("t", 6)]);
    let lines: Vec<&str> = out.iter().map(|(_, l)| l.as_str()).collect();
    assert!(lines[0].starts_with("ADV t 1 "), "got {lines:?}");
    assert!(lines[1].starts_with("FINAL t events=2 "), "got {lines:?}");
    assert_eq!(lines[2], "REJECT t unknown-tenant");
    assert_eq!(lines.len(), 3);

    // ...and one behind CLOSE → OPEN is the new tenant's first.
    let out = service.process_batch(&[
        open("t"),
        ev("t", 1),
        (0, "CLOSE t".into()),
        open("t"),
        ev("t", 2),
        ev("t", 3),
    ]);
    let lines: Vec<&str> = out.iter().map(|(_, l)| l.as_str()).collect();
    assert_eq!(lines[0], "OK open t");
    assert!(lines[1].starts_with("ADV t 0 "), "got {lines:?}");
    assert!(lines[2].starts_with("FINAL t events=1 "), "got {lines:?}");
    assert_eq!(lines[3], "OK open t");
    assert!(lines[4].starts_with("ADV t 0 "), "the re-opened tenant restarts: {lines:?}");
    assert!(lines[5].starts_with("ADV t 1 "), "got {lines:?}");

    // PANIC → EV → EV, then OPEN: one PANIC report, then every later
    // request for the name is refused as quarantined.
    let mut out = service.process_batch(&[(0, "PANIC t".into()), ev("t", 4), ev("t", 5)]);
    out.extend(service.process_batch(&[open("t")]));
    let lines: Vec<&str> = out.iter().map(|(_, l)| l.as_str()).collect();
    assert_eq!(lines[0], "OK panic-armed t");
    assert!(lines[1].starts_with("PANIC t quarantined err="), "got {lines:?}");
    assert_eq!(lines[2..], ["REJECT t quarantined", "REJECT t quarantined"]);

    // A tenant quarantined by *recovery* — its log is corrupt — is refused
    // the same way, and still gets its FINAL at drain.
    let dir = std::env::temp_dir().join(format!("pfserve-lifecycle-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let wal = WalOpts { dir: Some(dir.clone()), ..WalOpts::default() };
    let mut live = Service::new(ServeOpts { wal: wal.clone(), ..ServeOpts::default() }).unwrap();
    live.process_batch(&[open("bad"), ev("bad", 1), ev("bad", 2), ev("bad", 3), ev("bad", 4)]);
    drop(live); // crash: no drain
    let log = dir.join("bad.wal");
    let mut bytes = std::fs::read(&log).unwrap();
    let middle = bytes.len() / 2;
    bytes[middle] ^= 0x40;
    std::fs::write(&log, bytes).unwrap();
    let mut recovered =
        Service::new(ServeOpts { wal: WalOpts { recover: true, ..wal }, ..ServeOpts::default() })
            .unwrap();
    let report = recovered.recover();
    assert_eq!((report.quarantined, report.replayed), (1, 0), "{:?}", report.errors);
    let out = recovered.process_batch(&[ev("bad", 5), open("bad"), open("good"), ev("good", 1)]);
    let lines: Vec<&str> = out.iter().map(|(_, l)| l.as_str()).collect();
    assert_eq!(lines[..3], ["REJECT bad quarantined", "REJECT bad quarantined", "OK open good"]);
    assert!(lines[3].starts_with("ADV good 0 "), "got {lines:?}");
    let finals = recovered.drain();
    let bad = finals.iter().find(|l| l.starts_with("FINAL bad ")).expect("quarantined FINAL");
    assert!(bad.contains(" quarantined=true err=\"corrupt wal at byte "), "got {bad:?}");
    assert!(bad.contains(" rejects=tenant-limit:0,memory-budget:0,quarantined:2,"), "got {bad:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn advice_files_capture_per_tenant_streams() {
    let dir = std::env::temp_dir().join(format!("pfserve-advice-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = ServeOpts { advice_dir: Some(dir.clone()), ..ServeOpts::default() };
    let mut service = Service::new(opts).unwrap();
    let out = service.process_batch(&[open("t"), ev("t", 1), ev("t", 2), (0, "CLOSE t".into())]);
    let file = std::fs::read_to_string(dir.join("t.advice")).expect("advice file written");
    // The response FINAL carries service-appended observability fields
    // (queue_hwm=, rejects=) that deliberately stay out of the advice
    // file, so strip them before comparing.
    let mut expect: Vec<String> = out
        .iter()
        .filter(|(_, l)| l.starts_with("ADV t ") || l.starts_with("FINAL t "))
        .map(|(_, l)| match l.find(" queue_hwm=") {
            Some(i) => l[..i].to_string(),
            None => l.clone(),
        })
        .collect();
    expect.push(String::new());
    assert_eq!(
        file.split('\n').collect::<Vec<_>>(),
        expect.iter().map(String::as_str).collect::<Vec<_>>()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// One step's advice, read off the simulator's event stream.
#[derive(Default)]
struct StepAdvice {
    kind: Option<RefKind>,
    stall_ms: f64,
    prefetched: Vec<BlockId>,
}

impl SimObserver for StepAdvice {
    fn on_event(&mut self, event: &SimEvent<'_>) {
        match event {
            SimEvent::Reference { kind, stall_ms, .. } => {
                self.kind = Some(*kind);
                self.stall_ms = *stall_ms;
            }
            SimEvent::Period { activity, .. } => {
                self.prefetched.extend_from_slice(&activity.prefetched_blocks);
            }
            _ => {}
        }
    }
}

/// pfserve ≡ pfsim: a tenant fed a trace through `process_batch` gets,
/// event for event, the decisions of a bare `Simulator::step` loop over
/// the `SimConfig` its `OPEN` resolves to.
#[test]
fn a_tenant_is_advised_exactly_as_the_simulator_decides() {
    let trace = TraceKind::Cad.generate(2_500, 11);
    let mut lines = vec!["OPEN t0".to_string()];
    lines.extend(trace.blocks().map(|b| format!("EV t0 {}", b.0)));
    let opts = ServeOpts { echo_advice: true, ..ServeOpts::default() };
    let (responses, finals) = run_script(&lines, opts, 64);
    let served: Vec<&String> = responses.iter().filter(|l| l.starts_with("ADV ")).collect();
    assert_eq!(served.len(), trace.len());

    let spec = TenantSpec::from_opts(&[], &TenantDefaults::default()).unwrap();
    let mut sim = Simulator::new(&spec.to_sim_config());
    let mut metrics = SimMetrics::default();
    for (seq, (block, got)) in trace.blocks().zip(&served).enumerate() {
        let mut advice = StepAdvice::default();
        sim.step(TraceRecord::read(block), None, &mut (&mut metrics, &mut advice));
        let kind = match advice.kind.expect("every step reports its reference") {
            RefKind::DemandHit => 'h',
            RefKind::PrefetchHit => 'p',
            RefKind::Miss => 'm',
        };
        let pf: Vec<String> = advice.prefetched.iter().map(|b| b.0.to_string()).collect();
        let pf = if pf.is_empty() { "-".to_string() } else { pf.join(",") };
        let want = format!("ADV t0 {seq} {kind} stall={} pf={pf}", advice.stall_ms);
        assert_eq!(**got, want, "event {seq}");
    }
    assert!(metrics.prefetch_hits > 0, "the trace must exercise prefetching: {metrics:?}");

    let want_final = format!(
        "FINAL t0 events={} skipped=0 shed=0 demand_hits={} prefetch_hits={} misses={} \
         prefetches={} prefetch_faults=0 stall_ms={} elapsed_ms={} quarantined=false ",
        trace.len(),
        metrics.demand_hits,
        metrics.prefetch_hits,
        metrics.misses,
        metrics.prefetches_issued,
        metrics.stall_ms,
        sim.clock().now()
    );
    assert!(finals[0].starts_with(&want_final), "got {:?}\nwant {want_final:?}", finals[0]);
}
