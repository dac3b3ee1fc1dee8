//! Cold-index integration: `xfrag index` commits checksummed `.xidx`
//! segments alongside the `.xfrg` trees, a cold `msearch` runs off
//! those segments, and the answer bytes are identical across all four
//! strategies *and* identical to the in-memory index fallback when an
//! unversioned directory's segments are missing or corrupt — degraded
//! never means different. In a committed corpus a corrupt segment fails
//! its manifest checksum instead, and the previous generation answers.

use std::path::{Path, PathBuf};
use std::process::Command;
use xfrag_doc::manifest::{self, load_generation, GenerationLoad};
use xfrag_doc::SegmentIndex;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xfrag-cold-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn msearch(dir: &Path, strategy: &str) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_xfrag"))
        .args([
            "msearch",
            dir.to_str().unwrap(),
            "xml",
            "retrieval",
            "--size",
            "4",
            "--ids",
            "--strategy",
            strategy,
        ])
        .output()
        .expect("run xfrag msearch");
    assert!(out.status.success(), "msearch --strategy {strategy} failed");
    (
        String::from_utf8(out.stdout).unwrap(),
        String::from_utf8(out.stderr).unwrap(),
    )
}

#[test]
fn cold_queries_run_off_checksummed_segments_and_match_tree_walks() {
    let src = scratch("src");
    let out = scratch("corpus");
    std::fs::write(
        src.join("a.xml"),
        "<doc><sec><par>xml retrieval alpha</par><par>retrieval systems</par></sec></doc>",
    )
    .unwrap();
    std::fs::write(
        src.join("b.xml"),
        "<doc><par>xml models</par><par>retrieval of xml data</par></doc>",
    )
    .unwrap();
    std::fs::write(src.join("c.xml"), "<doc><par>unrelated text</par></doc>").unwrap();
    let o = Command::new(env!("CARGO_BIN_EXE_xfrag"))
        .args(["index", src.to_str().unwrap(), out.to_str().unwrap()])
        .output()
        .expect("run xfrag index");
    assert!(o.status.success(), "index failed");
    let stdout = String::from_utf8(o.stdout).unwrap();
    assert!(
        stdout.contains("3 document(s) + 3 index segment(s)"),
        "{stdout}"
    );

    // The committed manifest carries one segment per document, each
    // checksummed, byte-accurate, and decodable.
    let m = match load_generation(&out).unwrap() {
        GenerationLoad::Committed { manifest, .. } => manifest,
        other => panic!("expected a committed generation, got {other:?}"),
    };
    let segments: Vec<_> = m
        .files
        .iter()
        .filter(|e| e.name.ends_with(".xidx"))
        .collect();
    assert_eq!(segments.len(), 3, "{:?}", m.files);
    for e in &segments {
        let bytes = std::fs::read(out.join(&e.name)).unwrap();
        assert_eq!(bytes.len() as u64, e.len, "{}", e.name);
        assert_eq!(manifest::checksum(&bytes), e.checksum, "{}", e.name);
        SegmentIndex::from_bytes(&bytes).unwrap_or_else(|err| panic!("{}: {err}", e.name));
    }

    // Cold queries off the segments: all four strategies byte-identical.
    let (base, base_err) = msearch(&out, "pushdown");
    assert!(base.contains("fragment(s)"), "{base}");
    assert!(
        !base_err.contains("warning"),
        "segment-backed run warned: {base_err}"
    );
    for s in ["brute", "naive", "reduced"] {
        assert_eq!(msearch(&out, s).0, base, "--strategy {s} diverged");
    }

    // An unversioned directory holding the same `.xfrg`/`.xidx` pairs
    // under plain names answers with the same bytes: the committed
    // corpus serves under display names, which drop the generation infix.
    let legacy = scratch("legacy");
    for e in &m.files {
        let (plain, _) = manifest::split_generation_file(&e.name).unwrap();
        std::fs::copy(out.join(&e.name), legacy.join(plain)).unwrap();
    }
    let (stdout, stderr) = msearch(&legacy, "pushdown");
    assert_eq!(stdout, base, "unversioned copy diverged");
    assert!(!stderr.contains("warning"), "{stderr}");

    // There, a corrupt segment degrades that document to an in-memory
    // index with a warning — same answer bytes, never a failed or
    // missing document.
    let good = std::fs::read(legacy.join("a.xidx")).unwrap();
    std::fs::write(legacy.join("a.xidx"), &good[..good.len() / 2]).unwrap();
    let (stdout, stderr) = msearch(&legacy, "pushdown");
    assert_eq!(stdout, base, "corrupt-segment fallback changed answers");
    assert!(stderr.contains("using the in-memory index"), "{stderr}");

    // No segments at all: in-memory indexes, still byte-identical
    // across every strategy.
    for stem in ["a", "b", "c"] {
        std::fs::remove_file(legacy.join(format!("{stem}.xidx"))).unwrap();
    }
    for s in ["pushdown", "brute", "naive", "reduced"] {
        let (stdout, stderr) = msearch(&legacy, s);
        assert_eq!(stdout, base, "legacy fallback diverged under {s}");
        assert!(!stderr.contains("warning"), "{stderr}");
    }

    // In a committed corpus the manifest checksum rejects a corrupt
    // segment's whole generation: `msearch` rolls back to the previous
    // one, as `serve` does, and answers from it.
    let o = Command::new(env!("CARGO_BIN_EXE_xfrag"))
        .args(["index", src.to_str().unwrap(), out.to_str().unwrap()])
        .output()
        .expect("run xfrag index");
    assert!(o.status.success(), "second index failed");
    let g2 = out.join("a.g000002.xidx");
    let good = std::fs::read(&g2).unwrap();
    std::fs::write(&g2, &good[..good.len() / 2]).unwrap();
    let (stdout, stderr) = msearch(&out, "pushdown");
    assert_eq!(stdout, base, "rollback answered differently");
    assert!(stderr.contains("generation 2 rejected"), "{stderr}");

    std::fs::remove_dir_all(&src).unwrap();
    std::fs::remove_dir_all(&out).unwrap();
    std::fs::remove_dir_all(&legacy).unwrap();
}

#[test]
fn single_file_search_and_explain_pick_up_the_segment_sibling() {
    let src = scratch("single-src");
    let out = scratch("single-corpus");
    std::fs::write(
        src.join("a.xml"),
        "<doc><sec><par>xml retrieval alpha</par><par>retrieval systems</par></sec></doc>",
    )
    .unwrap();
    let status = Command::new(env!("CARGO_BIN_EXE_xfrag"))
        .args(["index", src.to_str().unwrap(), out.to_str().unwrap()])
        .status()
        .expect("run xfrag index");
    assert!(status.success());
    let xfrg = out.join("a.g000001.xfrg");
    assert!(xfrg.exists(), "expected generation file");

    // `search` on the committed `.xfrg` runs segment-backed: the stats
    // block reports the persistent tier and the lazily-loaded terms.
    let o = Command::new(env!("CARGO_BIN_EXE_xfrag"))
        .args([
            "search",
            xfrg.to_str().unwrap(),
            "xml",
            "retrieval",
            "--size",
            "4",
            "--ids",
            "--stats",
        ])
        .output()
        .expect("run xfrag search");
    assert!(o.status.success());
    let stdout = String::from_utf8(o.stdout).unwrap();
    assert!(stdout.contains("index: segment bytes="), "{stdout}");
    assert!(stdout.contains("terms_loaded=2"), "{stdout}");
    assert!(stdout.contains("joins="), "{stdout}");

    // `explain` reports the same provenance after running its stages.
    let o = Command::new(env!("CARGO_BIN_EXE_xfrag"))
        .args(["explain", xfrg.to_str().unwrap(), "xml", "retrieval"])
        .output()
        .expect("run xfrag explain");
    assert!(o.status.success());
    let stdout = String::from_utf8(o.stdout).unwrap();
    assert!(stdout.contains("index: segment bytes="), "{stdout}");

    std::fs::remove_dir_all(&src).unwrap();
    std::fs::remove_dir_all(&out).unwrap();
}

#[test]
fn msearch_stats_surface_the_segment_tier() {
    let src = scratch("stats-src");
    let out = scratch("stats-corpus");
    std::fs::write(
        src.join("a.xml"),
        "<doc><par>xml retrieval here</par></doc>",
    )
    .unwrap();
    let status = Command::new(env!("CARGO_BIN_EXE_xfrag"))
        .args(["index", src.to_str().unwrap(), out.to_str().unwrap()])
        .status()
        .expect("run xfrag index");
    assert!(status.success());

    let o = Command::new(env!("CARGO_BIN_EXE_xfrag"))
        .args([
            "msearch",
            out.to_str().unwrap(),
            "xml",
            "retrieval",
            "--stats",
        ])
        .output()
        .expect("run xfrag msearch --stats");
    assert!(o.status.success());
    let stdout = String::from_utf8(o.stdout).unwrap();
    assert!(stdout.contains("index: segments=1"), "{stdout}");
    assert!(stdout.contains("terms_loaded="), "{stdout}");
    // The query touched its two terms; the vocabulary stayed lazy.
    assert!(
        stdout.contains("terms_loaded=2"),
        "expected exactly the query terms materialized: {stdout}"
    );

    std::fs::remove_dir_all(&src).unwrap();
    std::fs::remove_dir_all(&out).unwrap();
}
