//! Shared by the daemon's integration tests: scratch directories, the
//! real `dcl1d` binary on an ephemeral port, and its line-JSON protocol.

// Each test binary uses its own subset.
#![allow(dead_code)]

use dcl1_obs::json::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// An empty scratch directory unique to one test of one test process.
pub fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dcl1d-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Spawns the daemon at smoke scale on an ephemeral port, its result
/// cache in `dir/cache`, and waits for its port file. Returns the child
/// and a connection to it.
pub fn start_daemon(dir: &Path, tag: &str, extra: &[&str]) -> (Child, TcpStream) {
    let port_file = dir.join(format!("port-{tag}"));
    let _ = std::fs::remove_file(&port_file);
    let child = Command::new(env!("CARGO_BIN_EXE_dcl1d"))
        .arg("--addr=127.0.0.1:0")
        .arg(format!("--port-file={}", port_file.display()))
        .args(extra)
        .env("DCL1_SCALE", "smoke")
        .env("DCL1_CACHE_DIR", dir.join("cache"))
        .env_remove("DCL1_CACHE_SHARED_DIR")
        .current_dir(dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn dcl1d");
    let deadline = Instant::now() + Duration::from_secs(60);
    let addr = loop {
        match std::fs::read_to_string(&port_file) {
            Ok(addr) if !addr.is_empty() => break addr,
            _ => {}
        }
        assert!(Instant::now() < deadline, "daemon never wrote its port file");
        std::thread::sleep(Duration::from_millis(5));
    };
    (child, TcpStream::connect(addr.trim()).expect("connect to daemon"))
}

/// Sends one request line and parses the one reply line.
pub fn rpc(stream: &mut TcpStream, line: &str) -> Json {
    stream.write_all(line.as_bytes()).expect("send request");
    stream.write_all(b"\n").expect("send newline");
    let mut reply = String::new();
    BufReader::new(&*stream).read_line(&mut reply).expect("read reply");
    assert!(!reply.is_empty(), "daemon closed the connection on: {line}");
    Json::parse(&reply).unwrap_or_else(|e| panic!("{line} -> {reply}: {e}"))
}

/// `{"cmd":"submit","tenant":TENANT,"grid":true}`, with `chaos` when
/// given; the reply's `accepted` count.
pub fn submit_grid(stream: &mut TcpStream, tenant: &str, chaos: Option<u64>) -> f64 {
    let chaos = chaos.map_or(String::new(), |s| format!(",\"chaos\":{s}"));
    let reply =
        rpc(stream, &format!("{{\"cmd\":\"submit\",\"tenant\":\"{tenant}\",\"grid\":true{chaos}}}"));
    num(&reply, &["accepted"])
}

/// `doc[path[0]][path[1]]…`; an absent key fails, naming it.
pub fn at<'a>(doc: &'a Json, path: &[&str]) -> &'a Json {
    path.iter().enumerate().fold(doc, |node, (i, key)| {
        node.get(key).unwrap_or_else(|| panic!("no key {:?} in {doc:?}", &path[..=i]))
    })
}

pub fn num(doc: &Json, path: &[&str]) -> f64 {
    at(doc, path).as_f64().unwrap_or_else(|| panic!("{path:?} is not a number in {doc:?}"))
}
