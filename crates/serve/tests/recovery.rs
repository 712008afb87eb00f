//! Crash-recovery integration tests: the durability contract of `pfserve`.
//!
//! The load-bearing property is **kill-anywhere bit-identity**: with
//! `fsync always`, crash the service at any point (drop without drain),
//! recover from the write-ahead logs, feed the remaining script, and every
//! tenant's advice file — events, advice, counters, FINAL report — is
//! byte-identical to an uninterrupted run (modulo the honest
//! `recovered=` marker). Around it, the damage-containment properties:
//! any single flipped bit or truncation quarantines or prefix-truncates
//! only the damaged tenant, injected write/sync faults degrade only their
//! victim, and an unusable WAL directory degrades the whole service to
//! in-memory-only — recovery and serving never panic, never abort.

use prefetch_disk::DurabilityFaultPlan;
use prefetch_serve::{ServeOpts, Service, TenantDefaults, TenantSpec, WalOpts, WalRecord};
use prefetch_wal::{AppendFault, AppendLog, FsyncPolicy, WriteFaults};
use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pfserve-recovery-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// `ServeOpts` with advice files and an always-fsync WAL — the strictest
/// durability point, where acked implies durable.
fn opts(advice: &Path, wal: &Path) -> ServeOpts {
    ServeOpts {
        advice_dir: Some(advice.to_path_buf()),
        echo_advice: false,
        wal: WalOpts {
            dir: Some(wal.to_path_buf()),
            fsync: FsyncPolicy::Always,
            ..WalOpts::default()
        },
        ..ServeOpts::default()
    }
}

/// A deterministic interleaved script: `tenants` tenants, `events` events
/// each, walking overlapping block sequences so the prefetch trees learn
/// real structure and the advice streams are non-trivial.
fn script(tenants: usize, events: usize) -> Vec<String> {
    let mut lines = Vec::new();
    for t in 0..tenants {
        lines.push(format!("OPEN t{t} cache=8 nodes=128"));
    }
    for e in 0..events {
        for t in 0..tenants {
            let block = (e as u64).wrapping_mul(2654435761).wrapping_add(t as u64 * 97) % 48;
            lines.push(format!("EV t{t} {block}"));
        }
    }
    lines
}

fn feed(service: &mut Service, lines: &[String], chunk: usize) {
    for batch in lines.chunks(chunk) {
        let tagged: Vec<(u64, String)> = batch.iter().map(|l| (0, l.clone())).collect();
        let _ = service.process_batch(&tagged);
    }
}

/// A tenant's advice file with the `recovered=` marker normalised away —
/// the one field that is *supposed* to differ after a recovery.
fn advice_file(dir: &Path, tenant: &str) -> String {
    fs::read_to_string(dir.join(format!("{tenant}.advice")))
        .unwrap_or_default()
        .replace(" recovered=replayed", " recovered=none")
        .replace(" recovered=degraded", " recovered=none")
}

/// Run the full script uninterrupted and drain; returns the root so the
/// caller can read `advice-base/` and clone `wal-base/`.
fn baseline(root: &Path, lines: &[String]) {
    let ab = root.join("advice-base");
    let wb = root.join("wal-base");
    let mut s = Service::new(opts(&ab, &wb)).expect("baseline service");
    feed(&mut s, lines, 16);
    let _ = s.drain();
}

/// The blocks of the `E` records in `tenant`'s log as the file stands
/// (`None` when there is no file); the scan must not call it corrupt.
fn logged_events(wal: &Path, tenant: &str) -> Option<Vec<u64>> {
    let path = wal.join(format!("{tenant}.wal"));
    if !path.exists() {
        return None;
    }
    let scan = prefetch_wal::scan(&path).unwrap();
    assert!(scan.resumable(), "{tenant}: {:?}", scan.tail);
    let event = |payload: &Vec<u8>| match WalRecord::decode(payload).unwrap() {
        WalRecord::Event(block) => Some(block),
        _ => None,
    };
    Some(scan.records.iter().filter_map(event).collect())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12 })]

    /// Kill-anywhere bit-identity: crash after any prefix of the script
    /// at any batch size, recover, feed the rest — every advice file
    /// matches the uninterrupted run byte for byte.
    #[test]
    fn random_kill_points_recover_bit_identical(cut in 0usize..=93, chunk in 1usize..9) {
        let root = tmp_dir(&format!("kill-{cut}-{chunk}"));
        let lines = script(3, 30);
        let cut = cut.min(lines.len());
        baseline(&root, &lines);

        // Crash: feed a prefix, then drop without drain.
        let ar = root.join("advice-rec");
        let wr = root.join("wal-rec");
        let crashed = Service::new(opts(&ar, &wr)).expect("crash service");
        {
            let mut crashed = crashed;
            feed(&mut crashed, &lines[..cut], chunk);
        }

        // Recover, feed the suffix, drain.
        let mut ropts = opts(&ar, &wr);
        ropts.wal.recover = true;
        let mut s = Service::new(ropts).expect("recovery service");
        let report = s.recover();
        prop_assert!(
            report.quarantined == 0,
            "clean logs must not quarantine: {:?}",
            report.errors
        );
        prop_assert_eq!(report.degraded, 0);
        feed(&mut s, &lines[cut..], 16);
        let _ = s.drain();

        let ab = root.join("advice-base");
        for t in 0..3 {
            let name = format!("t{t}");
            prop_assert!(
                advice_file(&ab, &name) == advice_file(&ar, &name),
                "tenant {} diverged after crash at line {}",
                name,
                cut
            );
        }
        let _ = fs::remove_dir_all(&root);
    }

    /// Write-ahead order at any batch size: when `process_batch` returns,
    /// each tenant's file holds exactly the events acknowledged so far —
    /// whether its records were flushed at batch end, by `METRICS` (the
    /// early `flush_queued`) or by a tenant verb (`flush_inline`). A short
    /// write landing mid-batch costs the victim its log from that record
    /// on, and nothing else: what it staged before is on disk, every
    /// event is still served, the siblings never notice.
    #[test]
    fn acknowledged_events_are_on_disk_after_every_batch(
        chunk in 1usize..24,
        verb_at in (0usize..96, 0usize..96, 0usize..96, 0usize..96),
        arm_after in 0usize..100,
        seed in 0u64..1000,
    ) {
        let root = tmp_dir(&format!("ahead-{chunk}-{arm_after}-{seed}"));
        let wal = root.join("wal");
        let mut o = opts(&root.join("advice"), &wal);
        o.echo_advice = true;
        let mut s = Service::new(o).expect("service");

        // t0 is the fault's victim (and takes the STATS), t1 the plain
        // sibling, t2 panics, t3 closes.
        let verbs = [(verb_at.0, "STATS t0"), (verb_at.1, "METRICS"), (verb_at.2, "PANIC t2"),
            (verb_at.3, "CLOSE t3")];
        feed(&mut s, &script(4, 0), 4);
        let mut lines = Vec::new();
        for (i, ev) in script(4, 24)[4..].iter().enumerate() {
            lines.extend(verbs.iter().filter(|(at, _)| *at == i).map(|(_, verb)| verb.to_string()));
            lines.push(ev.clone());
        }
        let plan = DurabilityFaultPlan {
            seed,
            short_write_rate: 0.15,
            ..DurabilityFaultPlan::disabled()
        };
        // The fault stream is a function of the append sequence alone, so
        // a clone says which append after arming it will tear.
        let mut probe = plan.injector(0);
        let tears = (0..24u64)
            .position(|i| matches!(probe.on_append(i, 16), Some(AppendFault::ShortWrite { .. })));
        let mut armed_at = None;

        let mut sent: [Vec<u64>; 4] = Default::default();
        let mut acked = [0usize; 4];
        let mut poisoned = false;
        let mut closed = false;
        for (n, batch) in lines.chunks(chunk).enumerate() {
            let tagged: Vec<(u64, String)> = batch.iter().map(|l| (0, l.clone())).collect();
            for line in batch {
                if let Some(ev) = line.strip_prefix("EV t") {
                    let (t, block) = ev.split_once(' ').unwrap();
                    sent[t.parse::<usize>().unwrap()].push(block.parse().unwrap());
                }
            }
            for (_, response) in s.process_batch(&tagged) {
                if let Some(adv) = response.strip_prefix("ADV t") {
                    acked[adv[..1].parse::<usize>().unwrap()] += 1;
                }
                poisoned |= response.starts_with("PANIC t2 ");
                closed |= response.starts_with("FINAL t3 ");
            }

            // t0: everything up to the torn record, served regardless.
            let on_disk = match (armed_at, tears) {
                (Some(at), Some(k)) => sent[0].len().min(at + k),
                _ => sent[0].len(),
            };
            prop_assert_eq!(acked[0], sent[0].len());
            prop_assert_eq!(logged_events(&wal, "t0"), Some(sent[0][..on_disk].to_vec()));
            // t1: exactly what was acknowledged, which is everything.
            prop_assert_eq!(acked[1], sent[1].len());
            prop_assert_eq!(logged_events(&wal, "t1"), Some(sent[1].clone()));
            // t2: the poisonous event is logged (recovery must reproduce
            // the panic) and so is what was queued behind it; the log
            // stays, and stays a prefix of what was sent.
            let t2 = logged_events(&wal, "t2").expect("a quarantined log is kept");
            prop_assert!(t2.len() >= acked[2] + usize::from(poisoned));
            prop_assert_eq!(&t2[..], &sent[2][..t2.len()]);
            if !poisoned {
                prop_assert_eq!(t2.len(), sent[2].len());
            }
            // t3: acknowledged events until the sealed `C` retires the log.
            match logged_events(&wal, "t3") {
                None => {
                    prop_assert!(closed, "only CLOSE removes a log");
                }
                Some(t3) => {
                    prop_assert!(!closed, "a closed log is retired");
                    prop_assert_eq!(&t3[..], &sent[3][..acked[3]]);
                }
            }

            if n == arm_after % lines.len().div_ceil(chunk) {
                prop_assert!(s.inject_wal_faults("t0", Box::new(plan.injector(0))));
                armed_at = Some(sent[0].len());
            }
        }

        let finals = s.drain();
        let wal_of = |t: &str| {
            let line = finals.iter().find(|l| l.starts_with(&format!("FINAL {t} "))).unwrap();
            line.split_ascii_whitespace().find_map(|kv| kv.strip_prefix("wal=")).unwrap().to_string()
        };
        let torn = matches!((armed_at, tears), (Some(at), Some(k)) if at + k < sent[0].len());
        prop_assert_eq!(wal_of("t0"), if torn { "degraded" } else { "on" });
        prop_assert_eq!(wal_of("t1"), "on");
        let _ = fs::remove_dir_all(&root);
    }
}

/// One flipped bit anywhere in a WAL never panics recovery, never reaches
/// the damaged tenant's advice silently (it is quarantined, or honestly
/// truncated to a clean replayed prefix), and never touches the sibling.
#[test]
fn bit_flips_quarantine_or_truncate_only_the_victim() {
    let root = tmp_dir("bitflip");
    let lines = script(2, 20);
    baseline(&root, &lines);
    let ab = root.join("advice-base");
    let wb = root.join("wal-base");
    let pristine_t0 = fs::read(wb.join("t0.wal")).unwrap();
    let pristine_t1 = fs::read(wb.join("t1.wal")).unwrap();
    let base_t0 = advice_file(&ab, "t0");
    let base_t1 = advice_file(&ab, "t1");

    // Every bit of the header and first record, then a stride across the
    // rest of the file: headers, length fields, fingerprints, payloads.
    let mut targets: Vec<usize> = (0..20 * 8).collect();
    targets.extend((20 * 8..pristine_t0.len() * 8).step_by(41));
    let mut quarantined = 0u64;
    let mut truncated = 0u64;
    for bit in targets {
        let case = root.join(format!("flip-{bit}"));
        let wal = case.join("wal");
        let advice = case.join("advice");
        fs::create_dir_all(&wal).unwrap();
        let mut damaged = pristine_t0.clone();
        damaged[bit / 8] ^= 1 << (bit % 8);
        fs::write(wal.join("t0.wal"), &damaged).unwrap();
        fs::write(wal.join("t1.wal"), &pristine_t1).unwrap();

        let mut ropts = opts(&advice, &wal);
        ropts.wal.recover = true;
        let mut s = Service::new(ropts).unwrap();
        let report = s.recover();
        let _ = s.drain();

        // The sibling is untouched, bit for bit.
        assert_eq!(advice_file(&advice, "t1"), base_t1, "flip at bit {bit} leaked into t1");
        // The victim is quarantined, or replayed to an honest prefix.
        let t0 = advice_file(&advice, "t0");
        if report.quarantined == 1 {
            quarantined += 1;
            assert_eq!(t0, "", "quarantined t0 must not write advice (bit {bit})");
            assert_eq!(report.errors.len(), 1);
            assert_eq!(report.errors[0].0, "t0");
        } else {
            truncated += 1;
            assert_eq!(report.quarantined, 0, "bit {bit}");
            // Replayed prefix: every ADV line must match the baseline's
            // ADV lines from the start, in order — detected damage may
            // cost the tail, never silently change advice.
            let got: Vec<&str> = t0.lines().filter(|l| l.starts_with("ADV")).collect();
            let want: Vec<&str> = base_t0.lines().filter(|l| l.starts_with("ADV")).collect();
            assert!(
                got.len() <= want.len() && got[..] == want[..got.len()],
                "flip at bit {bit} silently changed t0's advice"
            );
        }
        let _ = fs::remove_dir_all(&case);
    }
    // Sanity: the sweep exercised both containment paths.
    assert!(quarantined > 0, "no flip quarantined");
    assert!(truncated > 0, "no flip tore the tail");
    let _ = fs::remove_dir_all(&root);
}

/// Truncating the WAL at every byte boundary never panics: the tenant
/// recovers to a clean replayed prefix or is quarantined; nothing else.
#[test]
fn truncation_at_every_byte_boundary_never_panics() {
    let root = tmp_dir("trunc");
    let lines = script(1, 10);
    baseline(&root, &lines);
    let ab = root.join("advice-base");
    let pristine = fs::read(root.join("wal-base").join("t0.wal")).unwrap();
    let want: Vec<String> = advice_file(&ab, "t0")
        .lines()
        .filter(|l| l.starts_with("ADV"))
        .map(str::to_string)
        .collect();

    for len in 0..=pristine.len() {
        let case = root.join(format!("cut-{len}"));
        let wal = case.join("wal");
        let advice = case.join("advice");
        fs::create_dir_all(&wal).unwrap();
        fs::write(wal.join("t0.wal"), &pristine[..len]).unwrap();

        let mut ropts = opts(&advice, &wal);
        ropts.wal.recover = true;
        let mut s = Service::new(ropts).unwrap();
        let report = s.recover();
        let _ = s.drain();

        let got: Vec<String> = advice_file(&advice, "t0")
            .lines()
            .filter(|l| l.starts_with("ADV"))
            .map(str::to_string)
            .collect();
        assert!(
            got.len() <= want.len() && got[..] == want[..got.len()],
            "cut at {len}: advice is not a clean prefix"
        );
        if len == pristine.len() {
            assert_eq!(report.replayed, 1);
            assert_eq!(got.len(), want.len(), "full file must replay fully");
        }
        let _ = fs::remove_dir_all(&case);
    }
    let _ = fs::remove_dir_all(&root);
}

/// Hand-crafted sequence violations — event before OPEN, duplicate OPEN,
/// records after CLOSE — are typed quarantines, and the damaged name
/// stays quarantined for the life of the service.
#[test]
fn sequence_violations_quarantine_with_typed_errors() {
    let spec = TenantSpec::from_opts(&[], &TenantDefaults::default()).unwrap();
    let open = WalRecord::Open { spec, base: false };
    let cases: Vec<(&str, Vec<WalRecord>)> = vec![
        ("ev-before-open", vec![WalRecord::Event(3), open.clone()]),
        ("double-open", vec![open.clone(), WalRecord::Event(3), open.clone()]),
        (
            "after-close",
            vec![open.clone(), WalRecord::Event(3), WalRecord::Close, WalRecord::Event(4)],
        ),
    ];
    for (tag, records) in cases {
        let root = tmp_dir(&format!("seq-{tag}"));
        let wal = root.join("wal");
        fs::create_dir_all(&wal).unwrap();
        let mut log = AppendLog::create(&wal.join("bad.wal")).unwrap();
        for r in &records {
            log.append(&r.encode()).unwrap();
        }
        log.sync().unwrap();
        drop(log);

        let mut ropts = opts(&root.join("advice"), &wal);
        ropts.wal.recover = true;
        let mut s = Service::new(ropts).unwrap();
        let report = s.recover();
        assert_eq!(report.quarantined, 1, "{tag} must quarantine");
        assert_eq!(report.errors.len(), 1, "{tag}");
        assert_eq!(report.errors[0].0, "bad", "{tag}");

        // The name is poisoned: a fresh OPEN is refused, the service serves on.
        let responses = s.process_batch(&[
            (0, "OPEN bad".to_string()),
            (0, "OPEN good".to_string()),
            (0, "EV good 7".to_string()),
        ]);
        let lines: Vec<&str> = responses.iter().map(|(_, l)| l.as_str()).collect();
        assert!(
            lines.iter().any(|l| l.starts_with("REJECT bad") && l.contains("quarantined")),
            "{tag}: {lines:?}"
        );
        assert!(lines.iter().any(|l| l.starts_with("OK open good")), "{tag}: {lines:?}");
        let _ = s.drain();
        let _ = fs::remove_dir_all(&root);
    }
}

/// Injected append and sync faults (the `prefetch-disk` durability fault
/// plan driving `prefetch-wal`'s fault hooks) degrade only the victim's
/// WAL; the victim and its siblings keep serving advice.
#[test]
fn injected_durability_faults_degrade_only_the_victim() {
    for (tag, plan) in [
        (
            "short-write",
            DurabilityFaultPlan {
                seed: 11,
                short_write_rate: 1.0,
                ..DurabilityFaultPlan::disabled()
            },
        ),
        (
            "fsync-error",
            DurabilityFaultPlan {
                seed: 12,
                fsync_error_rate: 1.0,
                ..DurabilityFaultPlan::disabled()
            },
        ),
    ] {
        let root = tmp_dir(&format!("inject-{tag}"));
        let mut o = opts(&root.join("advice"), &root.join("wal"));
        o.echo_advice = true;
        let mut s = Service::new(o).unwrap();
        feed(&mut s, &script(2, 5), 16);
        assert!(s.inject_wal_faults("t0", Box::new(plan.injector(0))), "{tag}: no log to arm");

        let more: Vec<String> =
            (0..6).flat_map(|e| [format!("EV t0 {e}"), format!("EV t1 {e}")]).collect();
        let tagged: Vec<(u64, String)> = more.iter().map(|l| (0, l.clone())).collect();
        let responses = s.process_batch(&tagged);
        let adv =
            |t: &str| responses.iter().filter(|(_, l)| l.starts_with(&format!("ADV {t}"))).count();
        // Both tenants served every event, fault or not.
        assert_eq!(adv("t0"), 6, "{tag}");
        assert_eq!(adv("t1"), 6, "{tag}");

        let finals = s.drain();
        let final_of = |t: &str| {
            finals
                .iter()
                .find(|l| l.starts_with(&format!("FINAL {t}")))
                .unwrap_or_else(|| panic!("{tag}: no FINAL for {t}"))
        };
        assert!(final_of("t0").contains(" wal=degraded "), "{tag}: {}", final_of("t0"));
        assert!(final_of("t1").contains(" wal=on "), "{tag}: {}", final_of("t1"));
        let bye = finals.iter().find(|l| l.starts_with("BYE")).unwrap();
        assert!(bye.contains(" wal=on"), "{tag}: {bye}");
        assert!(bye.contains(" wal_degraded=1"), "{tag}: {bye}");
        let _ = fs::remove_dir_all(&root);
    }
}

/// An unusable WAL directory degrades the whole service to in-memory-only
/// — a warning and a flag, not a refused start, and serving is unaffected.
#[test]
fn unusable_wal_dir_degrades_to_memory_only() {
    let root = tmp_dir("nodir");
    let file = root.join("blocker");
    fs::write(&file, b"i am a file, not a directory").unwrap();
    let mut o = opts(&root.join("advice"), &file.join("sub"));
    o.echo_advice = true;
    let mut s = Service::new(o).expect("degraded start must succeed");
    let responses = s.process_batch(&[
        (0, "OPEN t0".to_string()),
        (0, "EV t0 1".to_string()),
        (0, "EV t0 2".to_string()),
    ]);
    assert!(responses.iter().filter(|(_, l)| l.starts_with("ADV t0")).count() == 2);
    let finals = s.drain();
    let final_t0 = finals.iter().find(|l| l.starts_with("FINAL t0")).unwrap();
    assert!(final_t0.contains(" wal=off "), "{final_t0}");
    let bye = finals.iter().find(|l| l.starts_with("BYE")).unwrap();
    assert!(bye.contains(" wal=degraded"), "{bye}");
    let _ = fs::remove_dir_all(&root);
}

/// CLOSE seals and retires the tenant's durability artifacts: the log is
/// deleted after the close record is durable, and recovery over the
/// directory finds nothing to restore.
#[test]
fn close_retires_the_log_and_recovery_finds_nothing() {
    let root = tmp_dir("close");
    let wal = root.join("wal");
    let mut s = Service::new(opts(&root.join("advice"), &wal)).unwrap();
    let mut lines = script(1, 8);
    lines.push("CLOSE t0".to_string());
    feed(&mut s, &lines, 16);
    assert!(!wal.join("t0.wal").exists(), "CLOSE must retire the log");
    let _ = s.drain();

    let mut ropts = opts(&root.join("advice2"), &wal);
    ropts.wal.recover = true;
    let mut s = Service::new(ropts).unwrap();
    let report = s.recover();
    assert_eq!(
        (report.replayed, report.degraded, report.closed, report.quarantined),
        (0, 0, 0, 0),
        "retired tenant must leave no recovery work"
    );
    let _ = s.drain();
    let _ = fs::remove_dir_all(&root);
}

/// Over the replay cap, recovery degrades honestly: counters come back
/// from the log (FINAL events match), state warm-starts from the latest
/// checkpoint, and the marker says `recovered=degraded`.
#[test]
fn over_cap_recovery_degrades_from_checkpoint() {
    let root = tmp_dir("cap");
    let wal = root.join("wal");
    let mut o = opts(&root.join("advice"), &wal);
    o.wal.checkpoint_every = 5;
    {
        let mut s = Service::new(o.clone()).unwrap();
        feed(&mut s, &script(1, 20), 4);
        // Crash: no drain.
    }
    assert!(wal.join("t0.ckpt.pftree").exists(), "checkpoints must have been written");

    let mut ropts = o;
    ropts.wal.recover = true;
    ropts.wal.recover_cap_events = 3;
    let mut s = Service::new(ropts).unwrap();
    let report = s.recover();
    assert_eq!(report.degraded, 1, "{:?}", report.errors);
    assert_eq!(report.replayed, 0);
    let finals = s.drain();
    let final_t0 = finals.iter().find(|l| l.starts_with("FINAL t0")).unwrap();
    assert!(
        final_t0.contains(" events=20 "),
        "counters must survive degraded recovery: {final_t0}"
    );
    assert!(final_t0.contains(" recovered=degraded "), "{final_t0}");
    let _ = fs::remove_dir_all(&root);
}

/// Under `--fsync never` a checkpoint is written and renamed but never
/// synced, so a machine crash can leave the name on an empty or partial
/// file. Such a snapshot does not scan clean and the degraded path falls
/// back a generation: to `.prev`, and cold when that is damaged too — told
/// apart here by the advice the restored tenant goes on to give.
#[test]
fn damaged_checkpoints_under_fsync_never_fall_back_a_generation() {
    let root = tmp_dir("ckpt-never");
    let wal = root.join("wal");
    let mut o = opts(&root.join("advice"), &wal);
    o.wal.fsync = FsyncPolicy::Never;
    o.wal.checkpoint_every = 25;
    {
        let mut s = Service::new(o.clone()).unwrap();
        feed(&mut s, &script(1, 60), 4);
        // Crash: no drain.
    }
    let newest = fs::read(wal.join("t0.ckpt.pftree")).expect("two generations were written");
    let previous = fs::read(wal.join("t0.ckpt.pftree.prev")).expect("two generations");
    assert_ne!(newest, previous);

    // Recover a copy of the directory whose two generations hold `ckpt`
    // and `prev` (`None` = no such file); the advice for 30 more events.
    let advice_after = |tag: &str, ckpt: Option<&[u8]>, prev: Option<&[u8]>| {
        let case = root.join(tag);
        fs::create_dir_all(&case).unwrap();
        fs::copy(wal.join("t0.wal"), case.join("t0.wal")).unwrap();
        for (name, bytes) in [("t0.ckpt.pftree", ckpt), ("t0.ckpt.pftree.prev", prev)] {
            if let Some(bytes) = bytes {
                fs::write(case.join(name), bytes).unwrap();
            }
        }
        let mut ropts = opts(&root.join(format!("advice-{tag}")), &case);
        ropts.echo_advice = true;
        ropts.wal.fsync = FsyncPolicy::Never;
        ropts.wal.recover = true;
        ropts.wal.recover_cap_events = 3;
        let mut s = Service::new(ropts).unwrap();
        let report = s.recover();
        assert_eq!((report.degraded, report.quarantined), (1, 0), "{tag}: {:?}", report.errors);
        let more: Vec<(u64, String)> = script(1, 90)[61..].iter().map(|l| (0, l.clone())).collect();
        let advice: Vec<String> = s.process_batch(&more).into_iter().map(|(_, l)| l).collect();
        let finals = s.drain();
        assert!(finals[0].contains(" events=90 ") && finals[0].contains(" recovered=degraded "));
        advice
    };
    let from_newest = advice_after("newest", Some(&newest), Some(&previous));
    let from_prev = advice_after("prev-only", None, Some(&previous));
    let cold = advice_after("cold", None, None);
    assert_ne!(from_newest, from_prev, "the probe must tell the generations apart");
    assert_ne!(from_prev, cold, "the probe must tell a restored tree from none");

    let half = &newest[..newest.len() / 2];
    assert_eq!(advice_after("zero-length", Some(&[]), Some(&previous)), from_prev);
    assert_eq!(advice_after("half-written", Some(half), Some(&previous)), from_prev);
    assert_eq!(advice_after("both-damaged", Some(half), Some(&[])), cold);
    let _ = fs::remove_dir_all(&root);
}

/// One framing, one scanner: with the WAL, periodic checkpoints and a
/// snapshot directory all on, every file the service leaves in either
/// directory — logs, `.base.pftree` captures, both checkpoint generations,
/// drained snapshots — is a PFWL image that `prefetch_wal::scan` reads
/// clean.
#[test]
fn every_file_the_service_leaves_scans_clean() {
    let root = tmp_dir("one-scanner");
    let (wal, snaps) = (root.join("wal"), root.join("snapshots"));
    fs::create_dir_all(&snaps).unwrap();
    let mut o = opts(&root.join("advice"), &wal);
    o.snapshot_dir = Some(snaps.clone());
    o.wal.checkpoint_every = 8;
    // First life, drained: every tenant's tree lands in `snapshots/`.
    {
        let mut s = Service::new(o.clone()).unwrap();
        feed(&mut s, &script(3, 40), 16);
        let _ = s.drain();
    }
    // Second life: the tenants warm-start (capturing `.base.pftree`),
    // checkpoint, one closes, and the service crashes with the rest open.
    {
        let mut s = Service::new(o).unwrap();
        let mut lines = script(3, 40);
        lines.push("CLOSE t0".to_string());
        feed(&mut s, &lines, 16);
    }
    let mut kinds = std::collections::BTreeSet::new();
    for dir in [&wal, &snaps] {
        for entry in fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            let scan = prefetch_wal::scan(&path).unwrap();
            assert_eq!(scan.tail, prefetch_wal::Tail::Clean, "{}", path.display());
            assert!(!scan.records.is_empty(), "{} holds no record", path.display());
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            kinds.insert(name.split_once('.').unwrap().1.to_string());
        }
    }
    let want = ["base.pftree", "ckpt.pftree", "ckpt.pftree.prev", "pftree", "wal"];
    assert_eq!(kinds.into_iter().collect::<Vec<_>>(), want);
    let _ = fs::remove_dir_all(&root);
}

/// The `key=` counter of a `BYE` line.
fn bye_field(bye: &str, key: &str) -> u64 {
    let value = bye
        .split_ascii_whitespace()
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
        .unwrap_or_else(|| panic!("no {key}= in {bye:?}"));
    value.parse().unwrap_or_else(|_| panic!("{key}={value:?} is not a count"))
}

/// The fsync policy moves only the number of syncs: the same script logs
/// the same appends under `always` and `never`; `always` syncs every
/// dirty log at every batch end (3 logs × 6 batches, as before records
/// were staged), `never` only at the drain, once per log — checkpoints
/// add none; and `--recover` over the `always` directory replays it.
#[test]
fn fsync_policy_changes_syncs_not_appends_and_the_log_replays() {
    let root = tmp_dir("fsync");
    let lines = script(3, 30);
    let drained_bye = |policy: FsyncPolicy, wal: &Path| {
        let mut o = opts(&root.join("advice"), wal);
        o.wal.fsync = policy;
        o.wal.checkpoint_every = 10;
        let mut s = Service::new(o).unwrap();
        feed(&mut s, &lines, 16);
        s.drain().pop().expect("drain ends with BYE")
    };
    let always = drained_bye(FsyncPolicy::Always, &root.join("wal-always"));
    let never = drained_bye(FsyncPolicy::Never, &root.join("wal-never"));
    assert!(bye_field(&always, "wal_appends") > 0, "{always}");
    assert_eq!(bye_field(&always, "wal_appends"), bye_field(&never, "wal_appends"));
    assert!(bye_field(&never, "checkpoints") > 0, "{never}");
    assert_eq!(bye_field(&always, "checkpoints"), bye_field(&never, "checkpoints"));
    assert_eq!(bye_field(&always, "wal_fsyncs"), 18, "{always}");
    assert_eq!(bye_field(&never, "wal_fsyncs"), 3, "{never}");

    let mut ropts = opts(&root.join("advice-rec"), &root.join("wal-always"));
    ropts.wal.recover = true;
    let mut s = Service::new(ropts).unwrap();
    let _ = s.recover();
    let bye = s.drain().pop().expect("drain ends with BYE");
    assert_eq!(bye_field(&bye, "recovered_replayed"), 3, "{bye}");
    assert_eq!(bye_field(&bye, "replayed_events"), 90, "{bye}");
    let _ = fs::remove_dir_all(&root);
}

/// Every file under `dir` and its subdirectories, as `(relative path,
/// bytes)` in name order.
fn tree_bytes(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in fs::read_dir(&d).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let name = path.strip_prefix(dir).unwrap().to_string_lossy().into_owned();
                out.push((name, fs::read(&path).unwrap()));
            }
        }
    }
    out.sort();
    out
}

fn copy_tree(from: &Path, to: &Path) {
    for (name, bytes) in tree_bytes(from) {
        let dst = to.join(name);
        fs::create_dir_all(dst.parent().unwrap()).unwrap();
        fs::write(dst, bytes).unwrap();
    }
}

/// One WAL directory holding every outcome recovery knows — clean, torn,
/// corrupt, closed and empty logs, a `base` warm start, an over-cap
/// degraded tenant, a reproduced panic and an admission refusal — recovers
/// to the same report, the same `STATS`/`FINAL`/`BYE` lines, and the same
/// advice, snapshot and WAL bytes at one worker and at four: the logs
/// replay on the pool, every side effect is applied in name order after.
#[test]
fn recovery_is_identical_at_one_and_four_threads() {
    const NAMES: [&str; 9] =
        ["boom", "clean", "closed", "corrupt", "empty", "long", "torn", "warm", "zbig"];
    let root = tmp_dir("threads");
    let crashed = root.join("crashed");
    let (advice, wal, snaps) = (crashed.join("advice"), crashed.join("wal"), crashed.join("snap"));
    let mut o = opts(&advice, &wal);
    o.snapshot_dir = Some(snaps.clone());
    o.wal.checkpoint_every = 8;
    // A first life, drained, leaves `warm`'s tree for the second to start
    // from (its own logs go elsewhere).
    {
        let first = ServeOpts {
            wal: WalOpts { dir: Some(root.join("wal-first")), ..o.wal.clone() },
            ..o.clone()
        };
        let mut s = Service::new(first).unwrap();
        let lines: Vec<String> = std::iter::once("OPEN warm cache=8 nodes=128".to_string())
            .chain((0..40u64).map(|i| format!("EV warm {}", i * 7 % 23)))
            .collect();
        feed(&mut s, &lines, 16);
        let _ = s.drain();
    }
    // The second life crashes with every tenant open.
    {
        let mut s = Service::new(o.clone()).unwrap();
        let mut lines: Vec<String> = ["boom", "clean", "corrupt", "long", "torn", "warm"]
            .iter()
            .map(|t| format!("OPEN {t} cache=8 nodes=128"))
            .collect();
        lines.push("OPEN zbig cache=8 nodes=100000".to_string());
        for e in 0..60u64 {
            for (k, t) in
                ["boom", "clean", "corrupt", "long", "torn", "warm", "zbig"].iter().enumerate()
            {
                if e < 30 || *t == "long" {
                    lines.push(format!("EV {t} {}", (e * 2654435761 + k as u64 * 97) % 48));
                }
            }
        }
        lines.push("PANIC boom".to_string());
        lines.push("EV boom 5".to_string());
        feed(&mut s, &lines, 16);
    }
    // Damage and hand-made logs.
    let torn = fs::read(wal.join("torn.wal")).unwrap();
    fs::write(wal.join("torn.wal"), &torn[..torn.len() - 3]).unwrap();
    let mut corrupt = fs::read(wal.join("corrupt.wal")).unwrap();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x40;
    fs::write(wal.join("corrupt.wal"), &corrupt).unwrap();
    let spec = TenantSpec::from_opts(&[], &TenantDefaults::default()).unwrap();
    let mut log = AppendLog::create(&wal.join("closed.wal")).unwrap();
    for r in [WalRecord::Open { spec, base: false }, WalRecord::Event(3), WalRecord::Close] {
        log.append(&r.encode()).unwrap();
    }
    log.sync().unwrap();
    AppendLog::create(&wal.join("empty.wal")).unwrap().sync().unwrap();
    let zbig_advice = fs::read(advice.join("zbig.advice")).unwrap();
    assert!(!zbig_advice.is_empty());

    let recover_at = |threads: usize| {
        let copy = root.join(format!("t{threads}"));
        copy_tree(&crashed, &copy);
        let mut ropts = opts(&copy.join("advice"), &copy.join("wal"));
        ropts.snapshot_dir = Some(copy.join("snap"));
        ropts.wal.recover = true;
        ropts.wal.recover_cap_events = 40;
        // Room for every small tenant, not for `zbig`'s 100 000 nodes.
        ropts.admission.memory_budget_bytes = Some(4 << 20);
        prefetch_pool::set_threads(threads);
        let mut s = Service::new(ropts).unwrap();
        let mut report = s.recover();
        prefetch_pool::set_threads(0);
        report.elapsed_ms = 0;
        let stats: Vec<(u64, String)> = NAMES.iter().map(|t| (0, format!("STATS {t}"))).collect();
        let mut lines: Vec<String> = s.process_batch(&stats).into_iter().map(|(_, l)| l).collect();
        lines.extend(s.drain());
        (format!("{report:?}"), report, lines, tree_bytes(&copy))
    };
    let one = recover_at(1);
    let four = recover_at(4);
    assert_eq!(one.0, four.0, "recovery report");
    assert_eq!(one.2, four.2, "STATS/FINAL/BYE lines");
    assert_eq!(one.3.len(), four.3.len(), "file count");
    for (a, b) in one.3.iter().zip(&four.3) {
        assert!(a == b, "{} differs from {}", a.0, b.0);
    }

    // Every outcome was exercised.
    let r = &one.1;
    assert_eq!((r.replayed, r.degraded, r.closed), (3, 1, 1), "{r:?}");
    assert_eq!((r.quarantined, r.torn_truncated), (3, 1), "{r:?}");
    let error = |t: &str| r.errors.iter().find(|(n, _)| n == t).map(|(_, e)| e.as_str());
    assert!(error("boom").is_some_and(|e| e.starts_with("panic reproduced")), "{r:?}");
    assert!(error("corrupt").is_some_and(|e| e.starts_with("corrupt wal")), "{r:?}");
    assert!(error("zbig").is_some_and(|e| e.starts_with("admission refused")), "{r:?}");
    let finals = &one.2;
    let final_of = |t: &str| finals.iter().find(|l| l.starts_with(&format!("FINAL {t} "))).unwrap();
    assert!(final_of("warm").contains(" recovered=replayed "), "{finals:?}");
    assert!(final_of("long").contains(" recovered=degraded "), "{finals:?}");
    // A refused tenant keeps its old advice; no temporary name survives;
    // the empty and closed logs are gone.
    let files: Vec<&str> = one.3.iter().map(|(n, _)| n.as_str()).collect();
    let advice_of =
        |t: &str| &one.3.iter().find(|(n, _)| *n == format!("advice/{t}.advice")).unwrap().1;
    assert_eq!(advice_of("zbig"), &zbig_advice);
    assert!(files.iter().all(|n| !n.ends_with(".tmp")), "{files:?}");
    assert!(!files.contains(&"wal/empty.wal") && !files.contains(&"wal/closed.wal"), "{files:?}");
    let _ = fs::remove_dir_all(&root);
}
