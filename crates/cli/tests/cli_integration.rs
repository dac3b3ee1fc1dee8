//! End-to-end tests driving the actual `xfrag` binary.

use std::process::Command;

fn xfrag() -> Command {
    Command::new(env!("CARGO_BIN_EXE_xfrag"))
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("xfrag-it-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn demo_reproduces_paper_answer() {
    let out = xfrag().arg("demo").output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("4 fragment(s)"), "{stdout}");
    assert!(stdout.contains("⟨n16,n17,n18⟩"), "{stdout}");
}

#[test]
fn search_explain_info_flow() {
    let dir = tmpdir("flow");
    let file = dir.join("doc.xml");
    std::fs::write(
        &file,
        "<article><sec><par>xml retrieval systems</par><par>retrieval models</par></sec></article>",
    )
    .unwrap();

    let out = xfrag()
        .args([
            "search",
            file.to_str().unwrap(),
            "xml",
            "retrieval",
            "--size",
            "3",
            "--ids",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("fragment(s)"), "{stdout}");

    let out = xfrag()
        .args([
            "explain",
            file.to_str().unwrap(),
            "xml",
            "retrieval",
            "--size",
            "3",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("Theorem 2"), "{stdout}");
    assert!(stdout.contains("RF ="), "{stdout}");

    let out = xfrag()
        .args(["info", file.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout).unwrap().contains("nodes:"));

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn compile_and_msearch() {
    let dir = tmpdir("msearch");
    std::fs::write(dir.join("a.xml"), "<a><p>rust engines</p></a>").unwrap();
    std::fs::write(dir.join("b.xml"), "<b><p>rust</p><p>engines</p></b>").unwrap();
    // Compile a third document to the binary format.
    let cxml = dir.join("c.xml");
    std::fs::write(&cxml, "<c><p>rust engines again</p></c>").unwrap();
    let cbin = dir.join("c.xfrg");
    let out = xfrag()
        .args(["compile", cxml.to_str().unwrap(), cbin.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    std::fs::remove_file(&cxml).unwrap(); // msearch must read the .xfrg

    let out = xfrag()
        .args([
            "msearch",
            dir.to_str().unwrap(),
            "rust",
            "engines",
            "--size",
            "3",
            "--ids",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("a.xml"), "{stdout}");
    assert!(stdout.contains("c.xfrg"), "{stdout}");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn errors_exit_nonzero() {
    // Unknown subcommand → usage on stderr, exit code 2.
    let out = xfrag().arg("frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8(out.stderr).unwrap().contains("usage:"));

    // Missing file → exit 1.
    let out = xfrag()
        .args(["search", "/nonexistent/x.xml", "kw"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));

    // Malformed XML → parse error with position.
    let dir = tmpdir("err");
    let bad = dir.join("bad.xml");
    std::fs::write(&bad, "<a><b></a>").unwrap();
    let out = xfrag()
        .args(["search", bad.to_str().unwrap(), "kw"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("XML parse error"));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Run `xfrag` with `args` and assert the full failure contract: the
/// expected exit code, an `error:`-prefixed diagnostic containing
/// `needle` on stderr, and *nothing* on stdout.
fn expect_failure(args: &[&str], code: i32, needle: &str) {
    let out = xfrag().args(args).output().unwrap();
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(
        out.status.code(),
        Some(code),
        "args {args:?}: stderr {err:?}"
    );
    assert!(err.contains("error:"), "args {args:?}: stderr {err:?}");
    assert!(err.contains(needle), "args {args:?}: stderr {err:?}");
    assert!(
        out.stdout.is_empty(),
        "args {args:?}: diagnostics leaked to stdout: {:?}",
        String::from_utf8_lossy(&out.stdout)
    );
}

/// Audit of every CLI failure path: usage errors exit 2 with the usage
/// text, runtime errors exit 1, and diagnostics go to stderr only.
#[test]
fn error_paths_audit() {
    let dir = tmpdir("audit");

    // Usage errors: exit 2, usage text on stderr.
    expect_failure(&["search"], 2, "usage:");
    expect_failure(&["serve"], 2, "serve needs a corpus directory");
    expect_failure(
        &["serve", dir.to_str().unwrap(), "--port", "99999"],
        2,
        "--port",
    );
    expect_failure(&["request"], 2, "request needs a host:port");
    expect_failure(&["request", "h:1"], 2, "request needs a JSON request line");

    // A corrupted .xfrg surfaces the typed store error.
    let bad_bin = dir.join("bad.xfrg");
    std::fs::write(&bad_bin, b"definitely not an XFRG file").unwrap();
    expect_failure(&["search", bad_bin.to_str().unwrap(), "kw"], 1, "corrupted");

    // Directory-level failures.
    expect_failure(
        &["msearch", "/nonexistent-xfrag-dir", "kw"],
        1,
        "cannot access",
    );
    expect_failure(&["serve", "/nonexistent-xfrag-dir"], 1, "cannot access");

    // A corpus where every file is quarantined refuses to serve.
    let quarantine_only = tmpdir("audit-quar");
    std::fs::write(quarantine_only.join("a.xml"), "<a><oops>").unwrap();
    expect_failure(
        &["serve", quarantine_only.to_str().unwrap()],
        1,
        "no loadable documents",
    );

    // A malformed --inject spec fails before binding the port.
    std::fs::write(dir.join("ok.xml"), "<a><p>kw</p></a>").unwrap();
    expect_failure(
        &["serve", dir.to_str().unwrap(), "--inject", "gibberish"],
        1,
        "fault clause",
    );

    // Writing compiled output onto a directory is an I/O error, not a
    // panic, and says which path failed.
    expect_failure(
        &[
            "compile",
            dir.join("ok.xml").to_str().unwrap(),
            dir.to_str().unwrap(),
        ],
        1,
        "cannot access",
    );

    // A one-shot request to a dead address fails cleanly.
    expect_failure(
        &["request", "127.0.0.1:1", r#"{"kind":"health"}"#],
        1,
        "cannot access 127.0.0.1:1",
    );

    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&quarantine_only).unwrap();
}

/// A reader hanging up early (`xfrag ... | head`) must not turn into a
/// panic or a failing exit code.
#[test]
fn broken_pipe_is_not_an_error() {
    let dir = tmpdir("pipe");
    let file = dir.join("wide.xml");
    let mut xml = String::from("<doc>");
    for _ in 0..300 {
        xml.push_str("<sec><par>needle</par></sec>");
    }
    xml.push_str("</doc>");
    std::fs::write(&file, xml).unwrap();

    let mut child = xfrag()
        .args([
            "search",
            file.to_str().unwrap(),
            "needle",
            "--size",
            "1",
            "--ids",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    // Close the read end before the child finishes evaluating, so its
    // (single, buffered) output write hits EPIPE.
    drop(child.stdout.take());
    let status = child.wait().unwrap();
    assert!(status.success(), "broken pipe became exit {status:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Every strategy answers an indexed corpus identically: `msearch --ids`
/// prints the same bytes under the default and under each forced
/// strategy.
#[test]
fn msearch_ids_identical_under_every_strategy() {
    let dir = tmpdir("strategies");
    let (src, corpus) = (dir.join("src"), dir.join("corpus"));
    std::fs::create_dir_all(&src).unwrap();
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
    let out = xfrag()
        .args(["index", src.to_str().unwrap(), corpus.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");

    let msearch = |strategy: Option<&str>| {
        let mut cmd = xfrag();
        cmd.args([
            "msearch",
            corpus.to_str().unwrap(),
            "xml",
            "retrieval",
            "--size",
            "4",
            "--ids",
        ]);
        if let Some(s) = strategy {
            cmd.args(["--strategy", s]);
        }
        let out = cmd.output().unwrap();
        assert!(out.status.success(), "{strategy:?}: {out:?}");
        out.stdout
    };
    let default = msearch(None);
    assert!(
        String::from_utf8_lossy(&default).contains("fragment(s) in 2 of 2"),
        "{}",
        String::from_utf8_lossy(&default)
    );
    for s in ["brute", "naive", "reduced", "pushdown"] {
        assert_eq!(msearch(Some(s)), default, "--strategy {s}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
