//! `msearch` ≡ `serve` on one corpus directory. Both load a directory
//! through the same loader, so over the same directory they must agree
//! on which documents it holds, under which names, and which answers
//! rank first: `msearch --ids` names the same documents and node lists,
//! in the same order, as a served `top_k: 10` query, and its document
//! count is `health`'s `docs`.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("xfrag-msearch-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn xfrag<S: AsRef<std::ffi::OsStr>>(args: &[S]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_xfrag"))
        .args(args)
        .output()
        .expect("run xfrag")
}

/// A running `xfrag serve --port 0`, killed on drop.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    fn start(dir: &Path) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_xfrag"))
            .arg("serve")
            .arg(dir)
            .args(["--port", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn server");
        let mut line = String::new();
        BufReader::new(child.stdout.take().unwrap())
            .read_line(&mut line)
            .expect("read startup line");
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected startup line: {line:?}"))
            .to_string();
        Server { child, addr }
    }

    fn rpc(&self, json: &str) -> String {
        let mut s = TcpStream::connect(&self.addr).expect("connect to server");
        s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        s.write_all(format!("{json}\n").as_bytes()).unwrap();
        let mut line = String::new();
        BufReader::new(s).read_line(&mut line).unwrap();
        line.trim_end().to_string()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.rpc(r#"{"kind":"shutdown","id":9}"#);
        let _ = self.child.wait();
    }
}

/// One ranked answer: document name and fragment node ids.
type Ranked = Vec<(String, Vec<u32>)>;

/// `msearch --ids` lines `[i] NAME SCORE ⟨n1,n2⟩`, plus the `M` of its
/// `in N of M document(s)` line.
fn msearch_answers(stdout: &str) -> (Ranked, u64) {
    let docs = stdout
        .split(" of ")
        .nth(1)
        .and_then(|rest| rest.split(' ').next())
        .and_then(|m| m.parse().ok())
        .unwrap_or_else(|| panic!("no document count: {stdout}"));
    let answers = stdout
        .lines()
        .filter(|l| l.starts_with('['))
        .map(|l| {
            let parts: Vec<&str> = l.split(' ').collect();
            let nodes = parts[3]
                .trim_matches(|c| c == '⟨' || c == '⟩')
                .split(',')
                .map(|n| n.trim_start_matches('n').parse().unwrap())
                .collect();
            (parts[1].to_string(), nodes)
        })
        .collect();
    (answers, docs)
}

/// The `"doc"` and `"nodes"` of each answer of a served query reply.
fn served_answers(reply: &str) -> Ranked {
    reply
        .split("{\"doc\":\"")
        .skip(1)
        .map(|a| {
            let name = a.split('"').next().unwrap().to_string();
            let nodes = a
                .split("\"nodes\":[")
                .nth(1)
                .and_then(|n| n.split(']').next())
                .unwrap_or_else(|| panic!("answer without nodes: {reply}"));
            let nodes = nodes.split(',').map(|n| n.parse().unwrap()).collect();
            (name, nodes)
        })
        .collect()
}

/// `msearch` and `serve` over `dir`: the same ranked answers and the
/// same document count. Returns `msearch`'s stdout and stderr.
fn assert_msearch_matches_serve(dir: &Path) -> (String, String) {
    let o = xfrag(&[
        "msearch".as_ref(),
        dir.as_os_str(),
        "xml".as_ref(),
        "retrieval".as_ref(),
        "--size".as_ref(),
        "4".as_ref(),
        "--ids".as_ref(),
    ]);
    let stderr = String::from_utf8(o.stderr).unwrap();
    assert!(o.status.success(), "msearch failed: {stderr}");
    let stdout = String::from_utf8(o.stdout).unwrap();
    let (answers, docs) = msearch_answers(&stdout);
    assert!(!answers.is_empty(), "{stdout}");

    let server = Server::start(dir);
    let reply =
        server.rpc(r#"{"kind":"query","id":1,"keywords":["xml","retrieval"],"size":4,"top_k":10}"#);
    assert!(reply.contains(r#""status":"ok""#), "{reply}");
    assert_eq!(
        answers,
        served_answers(&reply),
        "msearch: {stdout}\nserve: {reply}"
    );
    let health = server.rpc(r#"{"kind":"health","id":2}"#);
    assert!(
        health.contains(&format!("\"docs\":{docs},")),
        "msearch: {stdout}\nhealth: {health}"
    );
    (stdout, stderr)
}

#[test]
fn msearch_answers_what_serve_answers_on_one_directory() {
    let src = scratch("src");
    let corpus = scratch("corpus");
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
    let index = |extra: &[&str]| {
        let mut args = vec!["index"];
        args.extend_from_slice(extra);
        args.extend([src.to_str().unwrap(), corpus.to_str().unwrap()]);
        let o = xfrag(&args);
        assert!(o.status.success(), "{o:?}");
    };

    // Two full generations, then a delta that rewrites one document:
    // the directory holds files of generations 1–3, and both commands
    // answer from generation 3 alone, under display names.
    index(&[]);
    index(&[]);
    std::fs::write(
        src.join("a.xml"),
        "<doc><par>xml retrieval revised</par><par>more xml retrieval</par></doc>",
    )
    .unwrap();
    index(&["--delta"]);
    let (stdout, stderr) = assert_msearch_matches_serve(&corpus);
    assert!(stdout.contains(" of 2 document(s)"), "{stdout}");
    assert!(stdout.contains("] a.xfrg "), "{stdout}");
    assert!(!stderr.contains("warning"), "{stderr}");

    // An unparsable file is quarantined, with the warning serve prints,
    // and the rest still answers.
    let mixed = scratch("mixed");
    for name in ["a.xml", "b.xml"] {
        std::fs::copy(src.join(name), mixed.join(name)).unwrap();
    }
    std::fs::write(mixed.join("c.xml"), "<a><oops>").unwrap();
    let (stdout, stderr) = assert_msearch_matches_serve(&mixed);
    assert!(stdout.contains(" of 2 document(s)"), "{stdout}");
    assert!(stderr.contains("warning: quarantined c.xml"), "{stderr}");

    for dir in [src, corpus, mixed] {
        std::fs::remove_dir_all(dir).unwrap();
    }
}
