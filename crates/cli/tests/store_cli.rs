//! End-to-end test of the `synoptic` binary's durable-store commands:
//! build → estimate → fsck → (inject corruption) → fsck fails → repair →
//! fsck clean → estimate still answers, with degradation warned on stderr.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_synoptic")
}

fn run(args: &[&str]) -> Output {
    Command::new(bin())
        .args(args)
        .output()
        .expect("failed to launch synoptic binary")
}

fn ok(args: &[&str]) -> Output {
    let out = run(args);
    assert!(
        out.status.success(),
        "`synoptic {}` failed:\nstdout: {}\nstderr: {}",
        args.join(" "),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("{name}_{}", std::process::id()))
}

#[test]
fn fsck_and_repair_lifecycle() {
    let col = tmp("synoptic_e2e_col.txt");
    let store = tmp("synoptic_e2e_store");
    let _ = std::fs::remove_dir_all(&store);
    let col_s = col.to_str().unwrap();
    let store_s = store.to_str().unwrap();

    ok(&["generate", "--n", "32", "--seed", "7", "--out", col_s]);
    // Two builds → two generations of the same column.
    for _ in 0..2 {
        ok(&[
            "build",
            "--input",
            col_s,
            "--method",
            "sap0",
            "--budget",
            "18",
            "--catalog",
            store_s,
            "--column",
            "price",
        ]);
    }

    // A healthy store: estimate answers without warnings, fsck is clean.
    let est = ok(&[
        "estimate",
        "--catalog",
        store_s,
        "--column",
        "price",
        "--range",
        "0..31",
    ]);
    assert!(est.stderr.is_empty(), "unexpected stderr: {:?}", est.stderr);
    let clean: f64 = String::from_utf8_lossy(&est.stdout).trim().parse().unwrap();
    ok(&["fsck", "--catalog", store_s]);
    let report = ok(&["report", "--catalog", store_s]);
    let report_text = String::from_utf8_lossy(&report.stdout).to_string();
    assert!(report_text.contains("generation 2"), "{report_text}");
    assert!(report_text.contains("price"), "{report_text}");

    // Flip one bit in the committed generation's synopsis.
    let victim = store.join("price-2.syn");
    let mut bytes = std::fs::read(&victim).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x04;
    std::fs::write(&victim, &bytes).unwrap();

    // fsck now fails with a non-zero exit and names the damaged file.
    let f = run(&["fsck", "--catalog", store_s]);
    assert!(!f.status.success());
    let fsck_text = format!(
        "{}{}",
        String::from_utf8_lossy(&f.stdout),
        String::from_utf8_lossy(&f.stderr)
    );
    assert!(fsck_text.contains("price-2.syn"), "{fsck_text}");

    // Estimation still works — degraded, loudly, and with the same answer
    // served from the older generation.
    let est = ok(&[
        "estimate",
        "--catalog",
        store_s,
        "--column",
        "price",
        "--range",
        "0..31",
    ]);
    let degraded: f64 = String::from_utf8_lossy(&est.stdout).trim().parse().unwrap();
    assert_eq!(degraded, clean);
    let warn = String::from_utf8_lossy(&est.stderr).to_string();
    assert!(warn.contains("degraded"), "{warn}");

    // Repair quarantines (never deletes) and restores a clean fsck.
    ok(&["repair", "--catalog", store_s]);
    assert!(store.join("quarantine").join("price-2.syn").exists());
    ok(&["fsck", "--catalog", store_s]);
    let est = ok(&[
        "estimate",
        "--catalog",
        store_s,
        "--column",
        "price",
        "--range",
        "0..31",
    ]);
    assert!(est.stderr.is_empty(), "still degraded after repair");

    // Unknown store paths fail cleanly without inventing directories.
    let bad = run(&[
        "estimate",
        "--catalog",
        "/nonexistent/store",
        "--column",
        "x",
        "--range",
        "0..1",
    ]);
    assert!(!bad.status.success());

    let _ = std::fs::remove_file(&col);
    let _ = std::fs::remove_dir_all(&store);
}

/// The crash-recovery lifecycle of a journaled `maintain` run, and the
/// dedicated exit code (7) for a journal that cannot be trusted.
#[test]
fn recover_replays_journals_and_exit_7_on_corruption() {
    let col = tmp("synoptic_rec_col.txt");
    let store = tmp("synoptic_rec_store");
    let wal = tmp("synoptic_rec_wal");
    let _ = std::fs::remove_dir_all(&store);
    let _ = std::fs::remove_dir_all(&wal);
    let col_s = col.to_str().unwrap();
    let store_s = store.to_str().unwrap();
    let wal_s = wal.to_str().unwrap();

    ok(&["generate", "--n", "32", "--seed", "7", "--out", col_s]);
    // The rebuild threshold exceeds the update count, so every update
    // lives only in the journal — exactly the state a crash mid-stream
    // leaves behind.
    ok(&[
        "maintain",
        "--input",
        col_s,
        "--method",
        "sap0",
        "--budget",
        "18",
        "--updates",
        "100",
        "--every-k",
        "1000000",
        "--workers",
        "1",
        "--wal-dir",
        wal_s,
        "--catalog",
        store_s,
        "--fsync",
        "rotate",
    ]);

    // Recovery replays all 100 acknowledged updates onto the snapshot.
    let out = ok(&["recover", "--catalog", store_s, "--wal-dir", wal_s]);
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("100 journal record(s) replayed"), "{text}");

    // A torn final record (the classic kill-mid-append) is tolerated:
    // it was never acknowledged as durable.
    let seg = std::fs::read_dir(&wal)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "wal"))
        .expect("one journal segment");
    let bytes = std::fs::read(&seg).unwrap();
    std::fs::write(&seg, &bytes[..bytes.len() - 10]).unwrap();
    let out = ok(&["recover", "--catalog", store_s, "--wal-dir", wal_s]);
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("torn final record dropped"), "{text}");
    assert!(text.contains("99 journal record(s) replayed"), "{text}");

    // Damage inside the journal body is NOT tolerated: exit 7, nothing
    // committed.
    let mut bytes = std::fs::read(&seg).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&seg, &bytes).unwrap();
    let out = run(&[
        "recover",
        "--catalog",
        store_s,
        "--wal-dir",
        wal_s,
        "--commit",
    ]);
    assert_eq!(
        out.status.code(),
        Some(7),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(err.contains("journal"), "{err}");
    // The committed snapshot is untouched by the failed recovery.
    let report = ok(&["report", "--catalog", store_s]);
    let report_text = String::from_utf8_lossy(&report.stdout).to_string();
    assert!(report_text.contains("generation 1"), "{report_text}");

    // A missing journal directory is a clean (empty) recovery, and
    // `repair --prune` on a healthy store has nothing to reclaim.
    let out = ok(&[
        "recover",
        "--catalog",
        store_s,
        "--wal-dir",
        "/nonexistent/wal",
    ]);
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("0 journal record(s) replayed"), "{text}");
    let out = ok(&["repair", "--catalog", store_s, "--prune"]);
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("no abandoned generations"), "{text}");

    let _ = std::fs::remove_file(&col);
    let _ = std::fs::remove_dir_all(&store);
    let _ = std::fs::remove_dir_all(&wal);
}

/// The documented exit-code contract (see `synoptic help`):
/// 0 success, 1 failure, 2 usage, 4 corrupt synopsis/store,
/// 5 deadline/cell budget exceeded, 6 cancelled, 7 unrecoverable journal
/// (exercised in `recover_replays_journals_and_exit_7_on_corruption`).
#[test]
fn exit_code_contract() {
    let col = tmp("synoptic_exit_col.txt");
    let store = tmp("synoptic_exit_store");
    let _ = std::fs::remove_dir_all(&store);
    let col_s = col.to_str().unwrap();
    let store_s = store.to_str().unwrap();

    // 2: usage errors — unknown command, missing flag, unknown method.
    assert_eq!(run(&["frobnicate"]).status.code(), Some(2));
    assert_eq!(run(&["generate", "--out", col_s]).status.code(), Some(2));
    ok(&["generate", "--n", "32", "--seed", "7", "--out", col_s]);
    assert_eq!(
        run(&[
            "build",
            "--input",
            col_s,
            "--method",
            "magic",
            "--catalog",
            store_s,
            "--column",
            "x",
        ])
        .status
        .code(),
        Some(2)
    );

    // 1: generic failure — unreadable input file.
    assert_eq!(
        run(&[
            "build",
            "--input",
            "/nonexistent/col.txt",
            "--method",
            "sap0",
            "--catalog",
            store_s,
            "--column",
            "x",
        ])
        .status
        .code(),
        Some(1)
    );

    // 1: a storage budget one word short of the method's smallest
    // synopsis (SAP0 3 words/bucket, OPT-A 2, SAP1 5, a wavelet
    // coefficient 2, NAIVE 1) is refused, in anytime mode too.
    for (method, budget) in [
        ("sap0", "2"),
        ("opt-a", "1"),
        ("opt-a-reopt", "1"),
        ("sap1", "4"),
        ("wavelet-range", "1"),
        ("naive", "0"),
    ] {
        for extra in [&[][..], &["--anytime"][..]] {
            let mut args = vec!["build", "--input", col_s, "--method", method, "--budget"];
            args.extend_from_slice(&[budget, "--catalog", store_s, "--column", "price"]);
            args.extend_from_slice(extra);
            let out = run(&args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{method} {budget}: {stderr}");
            assert!(stderr.contains("budget"), "{method}: {stderr}");
        }
    }

    // 5: an exhausted budget aborts the build by default (strict mode) —
    // wall-clock deadline and cell cap land on the same code.
    for limit in [&["--deadline-ms", "0"][..], &["--max-cells", "5"][..]] {
        let mut args = vec![
            "build",
            "--input",
            col_s,
            "--method",
            "opt-a",
            "--budget",
            "18",
            "--catalog",
            store_s,
            "--column",
            "price",
        ];
        args.extend_from_slice(limit);
        let out = run(&args);
        assert_eq!(
            out.status.code(),
            Some(5),
            "{limit:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    // …and the refused and aborted builds committed nothing.
    assert!(!store.exists() || run(&["report", "--catalog", store_s]).status.code() != Some(0));

    // 6: cancellation always aborts, even in anytime mode — the ladder
    // never substitutes a weaker synopsis for an explicit abort.
    for extra in [&[][..], &["--anytime"][..]] {
        let mut args = vec![
            "build",
            "--input",
            col_s,
            "--method",
            "sap0",
            "--budget",
            "18",
            "--catalog",
            store_s,
            "--column",
            "price",
            "--cancel-after-checks",
            "0",
        ];
        args.extend_from_slice(extra);
        assert_eq!(run(&args).status.code(), Some(6), "extra={extra:?}");
    }

    // 0 + provenance: with --anytime a hopeless deadline still commits a
    // usable synopsis and reports what it degraded to.
    let out = ok(&[
        "build",
        "--input",
        col_s,
        "--method",
        "opt-a",
        "--budget",
        "18",
        "--catalog",
        store_s,
        "--column",
        "price",
        "--deadline-ms",
        "0",
        "--anytime",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(stdout.contains("provenance: degraded:"), "{stdout}");
    assert!(stderr.contains("degraded build"), "{stderr}");
    ok(&[
        "estimate",
        "--catalog",
        store_s,
        "--column",
        "price",
        "--range",
        "0..31",
    ]);

    // 4: corruption has its own code — fsck on a damaged store.
    let victim = store.join("price-1.syn");
    let mut bytes = std::fs::read(&victim).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x08;
    std::fs::write(&victim, &bytes).unwrap();
    assert_eq!(run(&["fsck", "--catalog", store_s]).status.code(), Some(4));

    let _ = std::fs::remove_file(&col);
    let _ = std::fs::remove_dir_all(&store);
}
