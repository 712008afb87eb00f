//! End-to-end trace pipeline: generate → save → load → simulate must be
//! equivalent to simulating the in-memory trace, for both formats; and the
//! failure-injection paths must error cleanly.

use predictive_prefetch::prelude::*;
use predictive_prefetch::trace::io;

fn tmp_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pf-pipeline-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn simulate_from_disk_equals_simulate_in_memory() {
    let dir = tmp_dir();
    for (kind, ext) in [(TraceKind::Cad, "trc"), (TraceKind::Sitar, "txt")] {
        let trace = kind.generate(5_000, 11);
        let path = dir.join(format!("{}.{ext}", kind.name()));
        io::save(&trace, &path).unwrap();
        let loaded = io::load(&path).unwrap();
        assert_eq!(loaded.meta().name, trace.meta().name);

        let cfg = SimConfig::new(256, PolicySpec::TreeNextLimit);
        let a = run_simulation(&trace, &cfg);
        let b = run_simulation(&loaded, &cfg);
        assert_eq!(a.metrics, b.metrics, "{kind}/{ext}");
    }
}

/// One pass of the binary reader over `bytes`: the records and the lossy
/// skip count, or the error.
fn read_trc(bytes: &[u8], opts: io::ReadOptions) -> Result<(Trace, u64), io::TraceIoError> {
    let mut source = io::BinarySource::with_options(std::io::Cursor::new(bytes), opts)?;
    let trace = source.materialize()?;
    Ok((trace, source.skipped()))
}

#[test]
fn corrupt_binary_traces_error_not_panic() {
    let trace = TraceKind::Cad.generate(500, 1);
    let mut buf = Vec::new();
    io::write_binary(&trace, &mut buf).unwrap();
    let modes = [io::ReadOptions { strict: true }, io::ReadOptions { strict: false }];
    // Whatever a damaged file yields is an error or a prefix of what was
    // written — never a panic, never invented records.
    let check = |what: &str, bytes: &[u8]| {
        for opts in modes {
            if let Ok((got, _)) = read_trc(bytes, opts) {
                let n = got.len();
                assert!(n <= trace.len() && got.records() == &trace.records()[..n], "{what}");
            }
        }
    };

    for cut in [1usize, 7, 13, buf.len() / 2, buf.len() - 1] {
        check(&format!("cut {cut}"), &buf[..buf.len() - cut]);
    }

    // Every byte of the header: magic, version, meta_len, meta, count.
    // The count's high bytes declare ~2^63 records and `meta_len`'s up to
    // 4 GiB of metadata; neither may size an allocation.
    let meta_len = u32::from_le_bytes(buf[6..10].try_into().unwrap()) as usize;
    let header_len = 4 + 2 + 4 + meta_len + 8;
    assert_eq!(u64::from_le_bytes(buf[header_len - 8..header_len].try_into().unwrap()), 500);
    for i in 0..header_len {
        let mut corrupt = buf.clone();
        corrupt[i] ^= 0xff;
        check(&format!("header byte {i}"), &corrupt);
        // Magic, version and length corruption is always detected; the
        // lenient mode has no trace to salvage from a bad header either.
        if i < 10 {
            for opts in modes {
                assert!(read_trc(&corrupt, opts).is_err(), "header byte {i} corruption accepted");
            }
        }
    }
    // A count that outruns the file: strict says so, lenient keeps what
    // is there and reports the rest lost.
    let mut corrupt = buf.clone();
    corrupt[header_len - 1] ^= 0xff;
    let strict = read_trc(&corrupt, modes[0]).unwrap_err();
    assert!(matches!(strict, io::TraceIoError::Truncated { got: 500, .. }), "{strict}");
    let (salvaged, skipped) = read_trc(&corrupt, modes[1]).unwrap();
    assert_eq!(salvaged.records(), trace.records());
    assert_eq!(skipped, 0xffu64 << 56);
}

#[test]
fn text_format_survives_hand_edits() {
    // Users hand-edit text traces; comments and blank lines are fine,
    // garbage is rejected with a line number.
    let src = "# my experiment\n100\n101\n\n# gap\n102 4 W\n";
    let t = io::read_text(&mut std::io::Cursor::new(src.as_bytes())).unwrap();
    assert_eq!(t.len(), 3);

    let bad = "100\noops\n";
    let err = io::read_text(&mut std::io::Cursor::new(bad.as_bytes())).unwrap_err();
    assert!(err.to_string().contains("line 2"), "{err}");
}

#[test]
fn stats_survive_round_trip() {
    let dir = tmp_dir();
    let trace = TraceKind::Snake.generate(8_000, 5);
    let before = TraceStats::compute(&trace);
    let path = dir.join("snake.trc");
    io::save(&trace, &path).unwrap();
    let after = TraceStats::compute(&io::load(&path).unwrap());
    assert_eq!(before, after);
}
