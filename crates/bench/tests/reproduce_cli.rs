//! Argument validation of the `reproduce` binary: every rejected
//! combination must exit 2 via the usage path before any simulation
//! starts, so these tests are instant.

use std::process::Command;

use sprout_bench::experiments::EXPERIMENTS;

fn reproduce(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("spawn reproduce")
}

fn exit_code(args: &[&str]) -> i32 {
    reproduce(args).status.code().expect("no signal")
}

#[test]
fn help_exits_zero() {
    assert_eq!(exit_code(&["--help"]), 0);
}

#[test]
fn empty_measurement_window_is_rejected() {
    // Straight contradiction.
    assert_eq!(exit_code(&["fig9", "--warmup", "100", "--secs", "50"]), 2);
    // Equality leaves nothing to measure either.
    assert_eq!(exit_code(&["fig9", "--warmup", "90", "--secs", "90"]), 2);
    let out = reproduce(&["fig9", "--warmup", "100", "--secs", "50"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("measurement window"),
        "stderr should explain the rejection: {stderr}"
    );
}

#[test]
fn quick_does_not_clobber_explicit_timing() {
    // --quick defaults secs to 90; an explicit warmup of 100 (in either
    // flag order) now contradicts it instead of being silently reset.
    assert_eq!(exit_code(&["fig9", "--quick", "--warmup", "100"]), 2);
    assert_eq!(exit_code(&["fig9", "--warmup", "100", "--quick"]), 2);
    // An explicit --secs above the explicit warmup resolves it. Keep the
    // run's side effects (out dir, cell cache) in a temp directory.
    let tmp = std::env::temp_dir().join(format!("reproduce-cli-test-{}", std::process::id()));
    let out = reproduce(&[
        "fig9",
        "--warmup",
        "100",
        "--secs",
        "120",
        "--quick",
        "--shard",
        "999999/1000000",
        "--out",
        &tmp.join("out").to_string_lossy(),
        "--cache-dir",
        &tmp.join("cache").to_string_lossy(),
    ]);
    // Shard 999999/1000000 owns none of fig9's five cells, so this
    // parses, runs nothing, and exits 0 — proving validation passed.
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let _ = std::fs::remove_dir_all(&tmp);
}

#[test]
fn shard_specs_are_validated() {
    for bad in ["2/2", "0/0", "x/2", "2", "1/2/3", ""] {
        assert_eq!(exit_code(&["fig9", "--shard", bad]), 2, "--shard {bad:?}");
    }
    assert_eq!(exit_code(&["fig9", "--shard"]), 2);
}

#[test]
fn incompatible_flag_combinations_are_rejected() {
    for combo in [
        vec!["fig9", "--merge", "--resume"],
        vec!["fig9", "--merge", "--shard", "0/2"],
        vec!["fig9", "--shard", "0/2", "--no-cache"],
        vec!["fig9", "--merge", "--no-cache"],
        vec!["fig9", "--resume", "--no-cache"],
        vec!["fig9", "--shard", "0/2", "--json"],
    ] {
        assert_eq!(exit_code(&combo), 2, "{combo:?} must be a usage error");
    }
}

#[test]
fn unknown_experiments_and_flags_are_rejected() {
    assert_eq!(exit_code(&["fig99"]), 2);
    assert_eq!(exit_code(&["fig9", "--frobnicate"]), 2);
    assert_eq!(exit_code(&["fig9", "--secs", "abc"]), 2);
}

#[test]
fn retired_bench_and_batch_flags_are_unknown() {
    // `reproduce` has no perf-trajectory mode and no batch toggle: each of
    // these flags takes the unknown-flag usage path, which names it.
    for args in [
        vec!["--bench"],
        vec!["fig9", "--bench-baseline", "x.json"],
        vec!["fig9", "--batch", "off"],
    ] {
        let flag = args.iter().find(|a| a.starts_with("--")).unwrap();
        let out = reproduce(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must be a usage error");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag {flag:?}")),
            "{args:?} should name the unknown flag: {stderr}"
        );
    }
}

#[test]
fn soak_axis_flag_values_are_validated() {
    // --prop-delays: one-way ms, each in 1..=10000, no duplicates
    // (duplicated axis values would cross into identical-label cells).
    for bad in ["0", "abc", "", "10,,20", "10,0", "20000", "-5", "20,20"] {
        assert_eq!(
            exit_code(&["soak", "--prop-delays", bad]),
            2,
            "--prop-delays {bad:?}"
        );
    }
    assert_eq!(exit_code(&["soak", "--prop-delays"]), 2);

    // --queues: auto | droptail | codel | bytes:N.
    for bad in [
        "bogus",
        "bytes:0",
        "bytes:x",
        "bytes:",
        "",
        "auto,,codel",
        "auto,auto",
        "bytes:75000,bytes:75000",
    ] {
        assert_eq!(exit_code(&["soak", "--queues", bad]), 2, "--queues {bad:?}");
    }
    assert_eq!(exit_code(&["soak", "--queues"]), 2);

    // --links: known link ids only.
    for bad in ["nope", "", "vz-lte-down,nope", "vz-lte-down,vz-lte-down"] {
        assert_eq!(exit_code(&["soak", "--links", bad]), 2, "--links {bad:?}");
    }
    assert_eq!(exit_code(&["soak", "--links"]), 2);
}

#[test]
fn soak_axis_flags_require_the_soak_experiment() {
    for combo in [
        vec!["fig7", "--prop-delays", "20"],
        vec!["fig9", "--queues", "auto"],
        vec!["loss", "--links", "vz-lte-down"],
        vec!["--prop-delays", "20"], // defaults to `all`, which has no axes
        // --links is shared between soak and contention, but nothing else.
        vec!["contention", "--prop-delays", "20"],
        vec!["contention", "--queues", "auto"],
    ] {
        assert_eq!(exit_code(&combo), 2, "{combo:?} must be a usage error");
    }
}

#[test]
fn contention_flag_values_are_validated() {
    // --flows: 2..=16 contending flows.
    for bad in ["0", "1", "17", "abc", "-3", ""] {
        assert_eq!(
            exit_code(&["contention", "--flows", bad]),
            2,
            "--flows {bad:?}"
        );
    }
    assert_eq!(exit_code(&["contention", "--flows"]), 2);

    // --contend: 2..=16 known flow specs; omniscient cannot contend; app
    // flows must name a tunneling carrier.
    for bad in [
        "cubic",                    // one flow is no contention
        "",
        "cubic,",
        "cubic,,sprout",
        "cubic,frobnicate",         // unknown scheme
        "omniscient,cubic",         // omniscient presumes sole ownership
        "skype-over-cubic,cubic",   // apps only tunnel over Sprout
        "skype-over-nothing,cubic",
        "nothing-over-sprout,cubic",
        "cubic,cubic,cubic,cubic,cubic,cubic,cubic,cubic,cubic,cubic,cubic,cubic,cubic,cubic,cubic,cubic,cubic", // 17 flows
    ] {
        assert_eq!(
            exit_code(&["contention", "--contend", bad]),
            2,
            "--contend {bad:?}"
        );
    }
    assert_eq!(exit_code(&["contention", "--contend"]), 2);
}

#[test]
fn contention_flags_require_the_contention_experiment() {
    for combo in [
        vec!["fig7", "--flows", "3"],
        vec!["soak", "--flows", "3"],
        vec!["fig9", "--contend", "sprout,cubic"],
        vec!["--contend", "sprout,cubic"], // defaults to `all`
        // --flows sizes the default set, --contend replaces it: pick one.
        vec!["contention", "--flows", "3", "--contend", "sprout,cubic"],
    ] {
        assert_eq!(exit_code(&combo), 2, "{combo:?} must be a usage error");
    }
}

#[test]
fn contention_accepts_valid_flags() {
    // Parse-and-validate proof via the owns-no-cells shard trick: each
    // flag set must get past validation, build the matrix, run nothing,
    // and exit 0.
    let tmp = std::env::temp_dir().join(format!("reproduce-contention-cli-{}", std::process::id()));
    for (tag, extra) in [
        ("flows", vec!["--flows", "4"]),
        (
            "contend",
            vec!["--contend", "sprout,cubic,skype-over-sprout,google-hangout"],
        ),
        ("links", vec!["--links", "vz-lte-down", "--flows", "2"]),
    ] {
        let mut args = vec!["contention", "--quick", "--shard", "999999/1000000"];
        args.extend(extra.iter().copied());
        let out_dir = tmp.join(tag).join("out");
        let cache_dir = tmp.join(tag).join("cache");
        let (out_s, cache_s) = (
            out_dir.to_string_lossy().into_owned(),
            cache_dir.to_string_lossy().into_owned(),
        );
        args.extend(["--out", &out_s, "--cache-dir", &cache_s]);
        let out = reproduce(&args);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {out:?}");
    }
    let _ = std::fs::remove_dir_all(&tmp);
}

#[test]
fn soak_accepts_valid_axis_flags() {
    // Parse-and-validate proof via the owns-no-cells shard trick: the
    // full flag set must get past validation, build the (reduced)
    // matrix, run nothing, and exit 0.
    let tmp = std::env::temp_dir().join(format!("reproduce-soak-cli-{}", std::process::id()));
    let out = reproduce(&[
        "soak",
        "--quick",
        "--links",
        "vz-lte-down,tmo-3g-up",
        "--prop-delays",
        "10,25,50,100",
        "--queues",
        "auto,droptail,codel,bytes:75000",
        "--shard",
        "999999/1000000",
        "--out",
        &tmp.join("out").to_string_lossy(),
        "--cache-dir",
        &tmp.join("cache").to_string_lossy(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let _ = std::fs::remove_dir_all(&tmp);
}

#[test]
fn every_registry_entry_dispatches() {
    let help = String::from_utf8(reproduce(&["--help"]).stdout).expect("utf-8 usage");
    let names = EXPERIMENTS
        .iter()
        .map(|e| e.name)
        .chain([sprout_bench::experiments::ALL]);
    for name in names {
        assert!(
            help.split_whitespace().any(|word| word == name),
            "--help must list {name}: {help}"
        );
        // The owns-no-cells shard trick: every name must parse, validate,
        // build its matrices, run nothing, and exit 0.
        let tmp = std::env::temp_dir().join(format!(
            "reproduce-registry-cli-{}-{name}",
            std::process::id()
        ));
        let (out_s, cache_s) = (
            tmp.join("out").to_string_lossy().into_owned(),
            tmp.join("cache").to_string_lossy().into_owned(),
        );
        let args = [
            name,
            "--quick",
            "--shard",
            "999999/1000000",
            "--out",
            &out_s,
            "--cache-dir",
            &cache_s,
        ];
        let out = reproduce(&args);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {out:?}");
        let _ = std::fs::remove_dir_all(&tmp);
    }
}
