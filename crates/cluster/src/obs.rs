//! Cluster observability: the coordinator's supervision metrics and
//! their HTTP scrape endpoint.
//!
//! A coordinator's metrics live in one [`SharedObs`] built from
//! [`METRICS`], so exports show zeros, not missing series, before
//! anything fails. The coordinator feeds it during a run and adds
//! per-worker health gauges (`cluster.worker.<w>.alive`,
//! `.incarnation`, `.restarts`) as slots come and go.
//! [`MetricsServer`] answers scrapes of it with the same
//! [`http_reply`] the serving tier uses.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use cedar_obs::{http_reply, MetricSet, SharedObs};

/// Every supervision metric. The one histogram counts ticks from a
/// job's first issue to its commit: 64 bins of 8 ticks covers
/// multi-restart recoveries, the overflow bin pathological tails.
pub const METRICS: MetricSet = MetricSet {
    counters: &[
        "cluster.jobs.dispatched",
        "cluster.jobs.committed",
        "cluster.jobs.cache_hits",
        "cluster.jobs.reissued",
        "cluster.results.stale",
        "cluster.worker.exits",
        "cluster.worker.hangs_reaped",
        "cluster.worker.garbage_frames",
        "cluster.worker.restarts",
        "cluster.worker.lost",
    ],
    gauges: &["cluster.workers.alive"],
    histograms: &["cluster.commit.latency_ticks"],
    bins: 64,
    bin_width: 8,
};

/// How long a scrape connection may take to send its request. A client
/// that connects and sends nothing is dropped after this, so it cannot
/// wedge the one accept thread (or [`MetricsServer::stop`]).
const SCRAPE_READ_TIMEOUT: Duration = Duration::from_secs(2);

/// Publishes one worker slot's health as per-worker gauges:
/// `cluster.worker.<w>.alive` (1 or 0), `.incarnation` and `.restarts`.
pub(crate) fn worker_health(obs: &SharedObs, w: u32, alive: bool, incarnation: u32, restarts: u32) {
    for (field, value) in [
        ("alive", f64::from(u8::from(alive))),
        ("incarnation", f64::from(incarnation)),
        ("restarts", f64::from(restarts)),
    ] {
        obs.set_gauge(&format!("cluster.worker.{w}.{field}"), value);
    }
}

/// A minimal HTTP scrape endpoint for a coordinator's [`SharedObs`]:
/// each connection gets one [`http_reply`] and is closed. One accept
/// thread, one connection at a time — a scraper's cadence, not a
/// serving tier's.
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// answering scrapes of `obs` in a background thread.
    ///
    /// # Errors
    ///
    /// Returns the bind error as a description.
    pub fn start(addr: &str, obs: Arc<SharedObs>) -> Result<MetricsServer, String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
        let local = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            for conn in listener.incoming() {
                if stop_flag.load(Ordering::Acquire) {
                    break;
                }
                if let Ok(stream) = conn {
                    serve_scrape(stream, &obs);
                }
            }
        });
        Ok(MetricsServer {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the accept with one throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        if self.handle.is_some() {
            self.shutdown();
        }
    }
}

fn serve_scrape(stream: TcpStream, obs: &SharedObs) {
    if stream.set_read_timeout(Some(SCRAPE_READ_TIMEOUT)).is_err() {
        return;
    }
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = stream;
    let mut request_line = String::new();
    if reader.read_line(&mut request_line).unwrap_or(0) == 0 {
        return;
    }
    // Drain the header block so the client sees a clean close.
    let mut hdr = String::new();
    loop {
        hdr.clear();
        match reader.read_line(&mut hdr) {
            Ok(0) => break,
            Ok(_) if hdr.trim().is_empty() => break,
            Ok(_) => {}
            Err(_) => return,
        }
    }
    let path = request_line.split_whitespace().nth(1).unwrap_or("/");
    let _ = writer.write_all(&http_reply(obs, path));
    let _ = writer.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_obs::export;

    #[test]
    fn supervision_metrics_are_pre_interned() {
        let text = SharedObs::new(&METRICS).prometheus();
        for series in [
            "cluster_jobs_dispatched",
            "cluster_worker_exits",
            "cluster_worker_restarts",
        ] {
            assert!(text.contains(series), "missing {series} in:\n{text}");
        }
    }

    #[test]
    fn metrics_server_answers_scrapes_with_help_and_type() {
        let obs = Arc::new(SharedObs::new(&METRICS));
        obs.inc("cluster.jobs.committed");
        let server = MetricsServer::start("127.0.0.1:0", Arc::clone(&obs)).unwrap();
        let addr = server.addr();

        let scrape = |path: &str| -> String {
            let mut s = TcpStream::connect(addr).unwrap();
            write!(s, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
            let mut text = String::new();
            use std::io::Read as _;
            s.read_to_string(&mut text).unwrap();
            text
        };
        let reply = scrape("/metrics");
        assert!(reply.starts_with("HTTP/1.1 200 OK"), "{reply}");
        assert!(reply.contains("cedar_cluster_jobs_committed 1"), "{reply}");
        assert!(reply.contains("# TYPE cedar_cluster_jobs_committed counter"));
        assert!(reply.contains("# HELP cedar_cluster_jobs_committed"));
        // The body must round-trip through the exposition parser.
        let body = reply.split("\r\n\r\n").nth(1).unwrap();
        let parsed = export::parse_prometheus(body).unwrap();
        assert_eq!(parsed.get("cedar_cluster_jobs_committed"), Some(&1.0));

        assert!(scrape("/nope").starts_with("HTTP/1.1 404"));
        server.stop();
    }

    #[test]
    fn worker_health_exports_per_worker_series() {
        let obs = SharedObs::new(&METRICS);
        worker_health(&obs, 2, true, 3, 2);
        worker_health(&obs, 5, false, 1, 4);
        obs.inc("cluster.worker.exits");
        obs.record("cluster.commit.latency_ticks", 17);
        let text = obs.prometheus();
        assert!(text.contains("cluster_worker_2_alive 1"), "{text}");
        assert!(text.contains("cluster_worker_2_incarnation 3"), "{text}");
        assert!(text.contains("cluster_worker_2_restarts 2"), "{text}");
        assert!(text.contains("cluster_worker_5_alive 0"), "{text}");
        assert!(text.contains("cluster_worker_5_incarnation 1"), "{text}");
        assert!(text.contains("cluster_worker_5_restarts 4"), "{text}");
        assert_eq!(obs.counter_value("cluster.worker.exits"), 1);
        let parsed = export::parse_prometheus(&text).unwrap();
        assert_eq!(
            parsed.get("cedar_cluster_commit_latency_ticks_count"),
            Some(&1.0),
            "{text}"
        );
        assert_eq!(
            parsed.get("cedar_cluster_commit_latency_ticks_sum"),
            Some(&17.0),
            "{text}"
        );
    }

    #[test]
    fn silent_connection_does_not_wedge_scrapes_or_stop() {
        use std::io::Read as _;
        let obs = Arc::new(SharedObs::new(&METRICS));
        let server = MetricsServer::start("127.0.0.1:0", Arc::clone(&obs)).unwrap();
        let addr = server.addr();
        // Connects and never sends a request line.
        let _silent = TcpStream::connect(addr).unwrap();
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(SCRAPE_READ_TIMEOUT * 5)).unwrap();
        write!(s, "GET /metrics HTTP/1.1\r\n\r\n").unwrap();
        let mut reply = String::new();
        s.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 200 OK"), "{reply}");

        let _silent_again = TcpStream::connect(addr).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            server.stop();
            let _ = tx.send(());
        });
        rx.recv_timeout(SCRAPE_READ_TIMEOUT * 5)
            .expect("stop() did not return with a silent connection open");
    }
}
