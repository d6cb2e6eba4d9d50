//! Backward-compat golden: the PR-5 line-JSON session, byte for byte.
//!
//! `golden/line_session.requests.txt` is a transcript recorded against
//! the original thread-per-connection server; every reply it produced
//! is committed in `golden/line_session.replies.txt`. Replies carry
//! only deterministic simulation fields (no timestamps), so any
//! compatible server must reproduce the reply stream byte-identically.
//!
//! Regenerate (only when the wire format intentionally changes) with
//! `CEDAR_BLESS=1 cargo test -p cedar-serve --test golden_transcript`, the
//! switch the workspace's other goldens use.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;

use cedar_serve::config::ServeConfig;
use cedar_serve::server::start;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

#[test]
fn line_json_session_is_byte_identical_to_the_committed_golden() {
    let requests = std::fs::read_to_string(golden_dir().join("line_session.requests.txt")).unwrap();
    let cache = std::env::temp_dir().join(format!("cedar-serve-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache);
    let handle = start(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        cache_dir: Some(cache.clone()),
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = handle.addr();

    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut replies = String::new();
    for line in requests.lines() {
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert!(
            reply.ends_with('\n'),
            "truncated reply to {line:?}: {reply:?}"
        );
        replies.push_str(&reply);
    }
    drop(writer);
    // The transcript ends with the shutdown op, so the server drains
    // and exits on its own.
    handle.join();
    let _ = std::fs::remove_dir_all(&cache);

    let golden_path = golden_dir().join("line_session.replies.txt");
    if std::env::var_os("CEDAR_BLESS").is_some() {
        std::fs::write(&golden_path, &replies).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("missing golden replies — run once with CEDAR_BLESS=1 to record the transcript");
    assert_eq!(
        replies, golden,
        "line-JSON replies drifted from the recorded PR-5 session"
    );
}
