//! The experiment contract, as `cargo test` enforces it: committed
//! goldens for every table without a wall-clock cell, the
//! shard-invariance gate over the registry's sharded experiments, the
//! gate's sensitivity (a `Wall` field may differ, nothing else may),
//! every usage error of the harness command line, and the registry's
//! own invariants. DESIGN.md, "Experiment reports".

use pvr_bench::e14::E14Cell;
use pvr_bench::{
    across_shards, parse_args, same_projection, Cfg, Experiment, Json, Wall, EXPERIMENTS, FLAGS,
};

fn experiment(id: &str) -> &'static Experiment {
    EXPERIMENTS.iter().find(|e| e.id == id).expect("registered experiment")
}

fn scale_56(shards: &[usize]) -> Cfg {
    Cfg { scale: 56, shards: shards.to_vec(), ..Cfg::default() }
}

/// Every table without a wall-clock cell that is cheap in a debug
/// build, byte for byte, plus e14's deterministic projection (its table
/// has an events/s column) and e15's metrics snapshot and timeline.
/// The files were generated by the parent of the commit that introduced
/// the registry (`e15.json` by the parent of the commit that moved the
/// JSON writers out of `pvr-obs`), so they pin that refactor and every
/// later one: an intended change to a table regenerates its file in the
/// same commit.
#[test]
fn experiment_outputs_match_committed_goldens() {
    let goldens: &[(&str, &str)] = &[
        ("e1", include_str!("expectations/e1.txt")),
        ("e7", include_str!("expectations/e7.txt")),
        ("e10", include_str!("expectations/e10.txt")),
        ("e11", include_str!("expectations/e11.txt")),
        ("e12", include_str!("expectations/e12.txt")),
        ("e14", include_str!("expectations/e14.jsonl")),
        ("e15", include_str!("expectations/e15.txt")),
        ("e16", include_str!("expectations/e16.txt")),
    ];
    let cfg = scale_56(&[1]);
    for &(id, expected) in goldens {
        let report = (experiment(id).run)(&cfg);
        let actual: String = if id == "e14" {
            let Some(Json::Arr(cells)) = report.metrics[0].1.to_json(true, 0) else {
                panic!("e14 reports an array of cells");
            };
            cells.iter().map(|c| c.render() + "\n").collect()
        } else {
            report.table
        };
        assert_eq!(actual, expected, "{id} drifted from its file under tests/expectations/");
        if id == "e14" {
            // Only plain and signed runs are measured; no other mode is
            // a copy of one of them under a new label.
            for cell in expected.lines() {
                let mode = |m: &str| cell.contains(&format!("\"mode\":\"{m}\","));
                assert!(mode("plain") || mode("signed"), "e14 cell of no measured mode: {cell}");
            }
        }
        if id == "e15" {
            // Its metrics values as the `--json` record carries them.
            let values =
                report.metrics.iter().filter_map(|(k, v)| Some((*k, v.to_json(false, 0)?)));
            assert_eq!(
                Json::Obj(values.collect()).render() + "\n",
                include_str!("expectations/e15.json"),
                "e15's metrics drifted from tests/expectations/e15.json"
            );
        }
    }
}

/// The CI determinism gate at test scale: every experiment that takes
/// `--shards` runs at 1 and 2 shards and panics, through
/// `across_shards`, if any deterministic field depends on the count.
#[test]
fn sharded_experiments_are_shard_invariant() {
    let cfg = scale_56(&[1, 2]);
    let sharded: Vec<&Experiment> =
        EXPERIMENTS.iter().filter(|e| e.flags.contains(&"--shards")).collect();
    assert_eq!(sharded.len(), 5, "e14–e18 take --shards");
    // One thread each: e18 alone is half the serial time in a debug build.
    std::thread::scope(|scope| {
        for e in sharded {
            let cfg = &cfg;
            scope.spawn(move || {
                let report = (e.run)(cfg);
                assert!(report.table.lines().count() > 8, "{}: table too small", e.id);
            });
        }
    });
}

fn cell() -> E14Cell {
    E14Cell {
        scale: 56,
        mode: "plain",
        shards: Wall(1),
        ases: 56,
        edges: 111,
        origins: 40,
        events: 4389,
        wall_secs: Wall(0.25),
        events_per_sec: Wall(17_556.0),
        peak_rib_entries: 6532,
        bytes_on_wire: 206_722,
        short_circuits: 2072,
        final_rib_sha256: "1e8c".repeat(16),
    }
}

/// The gate's sensitivity, as a mutation table: rows that differ only
/// in a `Wall` field compare equal; a difference in any other field
/// fails and names the field.
#[test]
fn projection_ignores_wall_fields_and_names_any_other() {
    type Mutation = (&'static str, fn(&mut E14Cell));
    let wall: &[Mutation] = &[
        ("shards", |c| c.shards.0 += 1),
        ("wall_secs", |c| c.wall_secs.0 *= 2.0),
        ("events_per_sec", |c| c.events_per_sec.0 /= 2.0),
    ];
    let covered: &[Mutation] = &[
        ("scale", |c| c.scale += 1),
        ("mode", |c| c.mode = "signed"),
        ("ases", |c| c.ases += 1),
        ("edges", |c| c.edges += 1),
        ("origins", |c| c.origins += 1),
        ("events", |c| c.events += 1),
        ("peak_rib_entries", |c| c.peak_rib_entries += 1),
        ("bytes_on_wire", |c| c.bytes_on_wire += 1),
        ("short_circuits", |c| c.short_circuits += 1),
        ("final_rib_sha256", |c| c.final_rib_sha256 = "0".repeat(64)),
    ];
    // Every field of the row is in exactly one of the two tables.
    let Some(Json::Obj(all)) = pvr_bench::ToJson::to_json(&cell(), false, 0) else {
        panic!("a row renders as an object");
    };
    let listed: Vec<&str> = wall.iter().chain(covered).map(|m| m.0).collect();
    assert_eq!(all.len(), listed.len());
    assert!(all.iter().all(|(name, _)| listed.contains(name)));

    for (field, mutate) in wall {
        let mut other = cell();
        mutate(&mut other);
        assert_eq!(same_projection(&cell(), &other), Ok(()), "Wall field {field} compared");
    }
    for (field, mutate) in covered {
        let mut other = cell();
        mutate(&mut other);
        let err = same_projection(&vec![cell()], &vec![other]).expect_err(field);
        assert!(err.starts_with(&format!("[0].{field}: ")), "{field} not named in `{err}`");
    }
}

/// The same through the gate itself: a field that follows the shard
/// count stops the run with the experiment, the counts and the field.
#[test]
#[should_panic(
    expected = "e14 scale 56: shards 2 diverged from shards 1 at .bytes_on_wire: 206723 != 206724"
)]
fn across_shards_panics_on_a_shard_dependent_field() {
    across_shards("e14 scale 56", &[1, 2], |shards| E14Cell {
        shards: Wall(shards),
        bytes_on_wire: 206_722 + shards as u64,
        ..cell()
    });
}

fn parse(args: &[&str]) -> Result<(Cfg, Vec<&'static str>), String> {
    let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    parse_args(&args).map(|(cfg, selected)| (cfg, selected.iter().map(|e| e.id).collect()))
}

/// Every way the harness exits 2, against the parse function: each
/// case is (arguments, what the one-line error must mention).
#[test]
fn usage_errors_are_rejected_up_front() {
    let cases: &[(&[&str], &str)] = &[
        // A value flag at the end of the line, or followed by a flag.
        (&["--scale"], "--scale needs an AS count between 56 and 90000, got nothing"),
        (&["--shards"], "--shards needs a comma-separated list"),
        (&["--churn"], "--churn needs an event count"),
        (&["--fault-seed"], "--fault-seed needs an unsigned integer"),
        (&["--smc-batch"], "--smc-batch needs a lane count"),
        (&["--metrics-out"], "--metrics-out needs a file path"),
        (&["--trace-out"], "--trace-out needs a file path"),
        (&["--checkpoint-every"], "--checkpoint-every needs a sim-time cadence"),
        (&["--checkpoint-dir"], "--checkpoint-dir needs a directory path"),
        (&["--restore"], "--restore needs the path of an existing checkpoint file"),
        (&["--metrics-out", "--json", "e15"], "--metrics-out needs a file path"),
        (&["--trace-out", "", "e15"], "--trace-out needs a file path"),
        // Out-of-range and malformed values.
        (&["--scale", "55"], "got `55`"),
        (&["--scale", "90001"], "--scale needs"),
        (&["--scale", "many"], "--scale needs"),
        (&["--shards", "0"], "--shards needs"),
        (&["--shards", "65"], "--shards needs"),
        (&["--shards", "1,,2"], "--shards needs"),
        (&["--shards", "1,x"], "--shards needs"),
        (&["--churn", "0"], "--churn needs"),
        (&["--churn", "100001"], "--churn needs"),
        (&["--fault-seed", "-1"], "--fault-seed needs"),
        (&["--smc-batch", "0"], "--smc-batch needs"),
        (&["--smc-batch", "65"], "--smc-batch needs"),
        (&["--checkpoint-every", "0"], "--checkpoint-every needs"),
        (&["--checkpoint-every", "60001"], "--checkpoint-every needs"),
        // Paths checked before any experiment burns CPU.
        (
            &["--metrics-out", "no-such-dir/m.prom", "e15"],
            "existing directory, got `no-such-dir/m.prom`",
        ),
        (&["--trace-out", "no-such-dir/t.jsonl", "e15"], "--trace-out needs"),
        (&["--checkpoint-dir", "no-such-dir/ckpts", "e18"], "--checkpoint-dir needs"),
        (&["--restore", "no-such-file.pvr", "e18"], "--restore needs"),
        (&["--restore", "tests", "e18"], "--restore needs"),
        // Unknown names, and --quick with ids.
        (&["--bogus"], "unknown flag `--bogus` (flags: --quick, --json, --scale N, --shards LIST,"),
        (&["e19"], "unknown experiment id `e19` (known: e1, e2,"),
        (&["e1", "E2"], "unknown experiment id `E2`"),
        // Retired ids: e3 was folded into e13, e8 into e14 and e4.
        (&["e3"], "unknown experiment id `e3`"),
        (&["e13", "e8"], "unknown experiment id `e8`"),
        (&["--quick", "e1"], "--quick cannot be combined with explicit experiment ids [\"e1\"]"),
        // A scoped flag none of whose experiments is selected.
        (&["--scale", "100", "e1"], "--scale only applies to e14/e15/e16/e17/e18, none of which"),
        (&["--shards", "2", "e4", "e13"], "--shards only applies to e14/e15/e16/e17/e18"),
        (&["--churn", "5", "e14"], "--churn only applies to e16"),
        (&["--fault-seed", "3", "e15"], "--fault-seed only applies to e16"),
        (&["--smc-batch", "8", "e16"], "--smc-batch only applies to e17"),
        (&["--metrics-out", "m.prom", "e14"], "--metrics-out only applies to e15"),
        (&["--trace-out", "t.jsonl", "e16"], "--trace-out only applies to e15"),
        (&["--checkpoint-every", "5", "e17"], "--checkpoint-every only applies to e18"),
        (&["--checkpoint-dir", "tests", "e17"], "--checkpoint-dir only applies to e18"),
        (&["--restore", "Cargo.toml", "e14"], "--restore only applies to e18"),
    ];
    for (args, mention) in cases {
        match parse(args) {
            Ok(parsed) => panic!("{args:?} was accepted: {parsed:?}"),
            Err(e) => assert!(e.contains(mention), "{args:?}: `{e}` does not mention `{mention}`"),
        }
    }
}

/// What the accepted command lines mean: defaults, `--quick`'s
/// defaults (CI reads its perf record at 500 ASes, shards 1 and 2) and
/// that value flags override them wherever `--quick` sits.
#[test]
fn accepted_command_lines() {
    let all: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
    assert_eq!(parse(&[]), Ok((Cfg::default(), all.clone())));
    assert_eq!(parse(&["--json"]), Ok((Cfg { json: true, ..Cfg::default() }, all)));
    assert_eq!(parse(&["e13", "e4", "e4"]).map(|p| p.1), Ok(vec!["e4", "e13"]));

    let (quick, ids) = parse(&["--quick"]).expect("--quick parses");
    assert_eq!((quick.scale, quick.shards.as_slice(), quick.quick), (500, &[1, 2][..], true));
    assert!(ids.len() == 12 && ids.iter().all(|id| experiment(id).in_quick));
    let (cfg, _) = parse(&["--scale", "120", "--quick", "--shards", "4,1,4"]).expect("parses");
    assert_eq!((cfg.scale, cfg.shard_counts()), (120, vec![1, 4]));

    let line = [
        "--churn",
        "128",
        "--fault-seed",
        "7",
        "--smc-batch",
        "8",
        "--checkpoint-every",
        "25",
        "--checkpoint-dir",
        "tests/new-dir",
        "--restore",
        "Cargo.toml",
        "--metrics-out",
        "m.prom",
        "--trace-out",
        "tests/t.jsonl",
    ];
    let (cfg, _) = parse(&line).expect("every scoped flag applies to a full run");
    assert_eq!((cfg.churn, cfg.fault_seed, cfg.smc_batch, cfg.checkpoint_every), (128, 7, 8, 25));
    assert_eq!(cfg.checkpoint_dir.as_deref(), Some("tests/new-dir".as_ref()));
    assert_eq!(cfg.restore.as_deref(), Some("Cargo.toml".as_ref()));
    assert_eq!(cfg.metrics_out.as_deref(), Some("m.prom".as_ref()));
    assert_eq!(cfg.trace_out.as_deref(), Some("tests/t.jsonl".as_ref()));
}

#[test]
fn registry_invariants() {
    let ids: Vec<String> = EXPERIMENTS.iter().map(|e| e.id.to_string()).collect();
    // e3 and e8 are retired; the other ids keep their numbers.
    let expected: Vec<String> =
        (1..=18).filter(|n| ![3, 8].contains(n)).map(|n| format!("e{n}")).collect();
    assert_eq!(ids, expected, "ids are unique and in order e1…e18, without e3 and e8");
    // E4, E5, E6 and E13 carry CI's speedup floors, checked under
    // `--quick` only: dropping one of them from `--quick` drops a gate.
    let quick: Vec<&str> = EXPERIMENTS.iter().filter(|e| e.in_quick).map(|e| e.id).collect();
    let want = ["e1", "e2", "e4", "e5", "e6", "e12", "e13", "e14", "e15", "e16", "e17", "e18"];
    assert_eq!(quick, want);

    assert_eq!(FLAGS.len(), 12, "the harness has exactly twelve flags");
    let scoped: Vec<&str> = FLAGS.iter().filter(|f| !f.value.is_empty()).map(|f| f.name).collect();
    assert_eq!(scoped.len(), 10, "all but --quick and --json take a value");
    for flag in &scoped {
        assert!(EXPERIMENTS.iter().any(|e| e.flags.contains(flag)), "{flag} names no experiment");
    }
    for e in EXPERIMENTS {
        for flag in e.flags {
            assert!(scoped.contains(flag), "{} lists {flag}, which is not a scoped flag", e.id);
        }
    }
}

/// Every citation of a DESIGN.md section in the workspace's Rust —
/// written `DESIGN.md, "The engine"` or `DESIGN.md ("The engine")`,
/// also when a comment wraps it across lines — names a heading of
/// DESIGN.md (which may go on with a parenthesis) or a bold
/// `**<label>.**` paragraph label.
#[test]
fn design_citations_resolve() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md");
    let headings: Vec<&str> = design
        .lines()
        .filter_map(|l| l.strip_prefix('#'))
        .map(|h| h.trim_start_matches('#').trim())
        .collect();
    let resolves = |label: &str| {
        design.contains(&format!("**{label}.**"))
            || headings.iter().any(|h| *h == label || h.starts_with(&format!("{label} (")))
    };
    let mut sources = Vec::new();
    let mut dirs: Vec<_> = ["crates", "src", "tests", "examples"].map(|d| root.join(d)).into();
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).expect("a source directory") {
            let path = entry.expect("a directory entry").path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|x| x == "rs") {
                sources.push(path);
            }
        }
    }
    let mut cited = 0;
    for path in sources {
        let text = std::fs::read_to_string(&path).expect("a source file");
        // One line of text per file, comment markers dropped, so a
        // citation wrapped across comment lines reads as one.
        let flat: Vec<&str> =
            text.lines().map(|l| l.trim_start().trim_start_matches(['/', '!']).trim()).collect();
        let flat = flat.join(" ");
        for opener in ["DESIGN.md, \"", "DESIGN.md (\""] {
            for (at, _) in flat.match_indices(opener) {
                let rest = &flat[at + opener.len()..];
                let label = &rest[..rest.find('"').expect("a closing quote")];
                assert!(resolves(label), "{}: DESIGN.md has no section {label:?}", path.display());
                cited += 1;
            }
        }
    }
    assert!(cited > 0, "no DESIGN.md citation found under {}", root.display());
}
