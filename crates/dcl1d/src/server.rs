//! TCP front end: line-delimited JSON over per-connection threads.
//!
//! Each connection gets its own thread; a wedged or malicious client
//! therefore blocks only itself, and the daemon core (behind its own
//! mutex) keeps answering everyone else — `status` stays responsive even
//! under full queue overload. `subscribe` upgrades a connection into a
//! live JSONL progress stream fed by a fan-out writer shared with the
//! sweep runner's progress sink, so point-level runner events and the
//! daemon's own tenant-level job events interleave on one channel. That
//! channel is written by the job threads themselves, so a subscriber gets
//! a bounded write timeout and is disconnected when it stops reading.

use crate::proto::{self, Request};
use crate::scheduler::{Daemon, DaemonConfig};
use dcl1_bench::runner;
use dcl1_obs::json::escape;
use dcl1_obs::progress::ProgressSink;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The shared subscriber list: progress lines fan out to every stream.
type SubscriberList = Arc<Mutex<Vec<TcpStream>>>;

/// How long one progress line may block on one subscriber. Every job
/// thread emits through the same sink, so a subscriber that stopped
/// reading stalls them all for at most this long, once, and is gone.
const SUBSCRIBER_WRITE_TIMEOUT: Duration = Duration::from_secs(1);

/// An `io::Write` that duplicates every buffer to all live subscribers
/// and drops the ones that are dead or whose socket buffer stayed full
/// for [`SUBSCRIBER_WRITE_TIMEOUT`] — closing the connection, because a
/// timed-out write may have left half a line behind. `ProgressSink`
/// writes one complete JSON line per call, so every subscriber still
/// attached has seen whole lines only.
pub struct FanoutWriter {
    subs: SubscriberList,
}

impl FanoutWriter {
    /// Adds `stream` to the fan-out.
    fn subscribe(subs: &SubscriberList, stream: &TcpStream) -> io::Result<()> {
        let clone = stream.try_clone()?;
        clone.set_write_timeout(Some(SUBSCRIBER_WRITE_TIMEOUT))?;
        subs.lock().map_err(|_| io::Error::other("subscriber list poisoned"))?.push(clone);
        Ok(())
    }
}

impl Write for FanoutWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if let Ok(mut subs) = self.subs.lock() {
            subs.retain_mut(|s| {
                let alive = s.write_all(buf).is_ok();
                if !alive {
                    let _ = s.shutdown(Shutdown::Both);
                }
                alive
            });
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        // `TcpStream::flush` is a no-op: `write` already handed the line
        // to the kernel.
        Ok(())
    }
}

/// A bound, running daemon front end.
pub struct Server {
    listener: TcpListener,
    daemon: Arc<Daemon>,
    subs: SubscriberList,
}

impl Server {
    /// Builds the full daemon stack on the process session
    /// ([`runner::process_session`], which the `benchmark/` ledger reads
    /// back after driving the daemon): the fan-out progress sink, the
    /// scheduler with its worker pool (which installs that sink as the
    /// session's, so point events share the stream), and the TCP listener.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the address cannot be bound
    /// or the queue journal cannot be opened.
    pub fn launch(addr: &str, cfg: DaemonConfig) -> io::Result<Server> {
        let subs: SubscriberList = Arc::new(Mutex::new(Vec::new()));
        let sink =
            Arc::new(ProgressSink::new(Box::new(FanoutWriter { subs: Arc::clone(&subs) })));
        let daemon = Daemon::launch(cfg, Some(sink), Arc::clone(runner::process_session()))?;
        let listener = TcpListener::bind(addr)?;
        Ok(Server { listener, daemon, subs })
    }

    /// The bound address (useful with port 0).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the socket is gone.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accepts connections until a `drain` completes. Each connection is
    /// served on its own thread.
    pub fn serve(&self) {
        let addr = self.local_addr().ok();
        for conn in self.listener.incoming() {
            if self.daemon.is_shutdown() {
                break;
            }
            let Ok(stream) = conn else { continue };
            let daemon = Arc::clone(&self.daemon);
            let subs = Arc::clone(&self.subs);
            let _ = std::thread::Builder::new()
                .name("dcl1d-conn".to_string())
                .spawn(move || serve_connection(stream, &daemon, &subs, addr));
        }
    }
}

/// One reply line for an error.
fn error_reply(msg: &str) -> String {
    format!("{{\"ok\":false,\"error\":\"{}\"}}\n", escape(msg))
}

fn handle_request(
    req: Request,
    daemon: &Daemon,
    stream: &TcpStream,
    subs: &SubscriberList,
    addr: Option<SocketAddr>,
) -> Option<String> {
    match req {
        Request::Submit(sub) => Some(match proto::expand_submit(&sub) {
            Ok(specs) => render_verdicts(&daemon.submit_jobs(specs)),
            Err(e) => error_reply(&e),
        }),
        Request::Status { tenant } => {
            let mut line = daemon.status_json(tenant.as_deref());
            line.push('\n');
            Some(line)
        }
        Request::Cancel { tenant, job } => {
            let n = daemon.cancel_tenant(&tenant, job);
            Some(format!("{{\"ok\":true,\"cancelled\":{n}}}\n"))
        }
        Request::Subscribe => Some(match FanoutWriter::subscribe(subs, stream) {
            Ok(()) => "{\"ok\":true,\"subscribed\":true}\n".to_string(),
            Err(_) => error_reply("subscribe failed"),
        }),
        Request::Drain => {
            let mut line = daemon.handle_drain();
            line.push('\n');
            // Deliver the summary BEFORE poking the accept loop awake:
            // the poke lets `serve()` observe shutdown and the process
            // exit, which would race the reply onto a dying socket.
            let mut w = stream;
            let _ = w.write_all(line.as_bytes()).and_then(|()| w.flush());
            if let Some(a) = addr {
                let _ = TcpStream::connect(a);
            }
            None
        }
    }
}

fn serve_connection(
    stream: TcpStream,
    daemon: &Daemon,
    subs: &SubscriberList,
    addr: Option<SocketAddr>,
) {
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read_half);
    let mut writer = &stream;
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        if line.trim().is_empty() {
            continue;
        }
        let reply = match proto::parse_request(line.trim_end()) {
            Ok(req) => handle_request(req, daemon, &stream, subs, addr),
            Err(e) => Some(error_reply(&e)),
        };
        if let Some(reply) = reply {
            if writer.write_all(reply.as_bytes()).is_err() || writer.flush().is_err() {
                return;
            }
        }
    }
}

/// Renders the submit reply: per-batch verdict counts, the accepted job
/// ids, and the largest retry-after hint among any rejections.
fn render_verdicts(verdicts: &[crate::queue::Verdict]) -> String {
    use crate::queue::Verdict;
    let mut ids = Vec::new();
    let (mut shed, mut rejected) = (0usize, 0usize);
    let mut retry_after_ms = 0u64;
    let mut reason = String::new();
    for v in verdicts {
        match v {
            Verdict::Accepted { id } => ids.push(*id),
            Verdict::Shed { id, .. } => {
                ids.push(*id);
                shed += 1;
            }
            Verdict::Rejected { retry_after_ms: r, reason: why } => {
                rejected += 1;
                if *r >= retry_after_ms {
                    retry_after_ms = *r;
                    reason.clone_from(why);
                }
            }
        }
    }
    let mut out = format!(
        "{{\"ok\":true,\"accepted\":{},\"shed\":{shed},\"rejected\":{rejected}",
        ids.len()
    );
    if rejected > 0 {
        out.push_str(&format!(
            ",\"retry_after_ms\":{retry_after_ms},\"reason\":\"{}\"",
            escape(&reason)
        ));
    }
    out.push_str(",\"ids\":[");
    for (i, id) in ids.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&id.to_string());
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::{JobSpec, Quotas};
    use std::io::Read;
    use std::sync::mpsc;

    fn subscribe(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(b"{\"cmd\":\"subscribe\"}\n").expect("send subscribe");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("subscribe reply");
        assert!(reply.contains("\"subscribed\":true"), "{reply}");
        (stream, reader)
    }

    #[test]
    fn a_subscriber_that_stops_reading_is_dropped_and_blocks_nobody() {
        let cfg = DaemonConfig {
            workers: 2,
            scale: dcl1_bench::Scale::Smoke,
            quotas: Quotas::default(),
            journal: None,
            resume: false,
        };
        let server = Arc::new(Server::launch("127.0.0.1:0", cfg).expect("launch"));
        let addr = server.local_addr().expect("addr");
        let serving = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.serve())
        };

        // One subscriber never reads past its subscribe reply; the other
        // reads everything until its connection closes.
        let (_wedged, _unread) = subscribe(addr);
        let (healthy, mut reader) = subscribe(addr);
        let collector = std::thread::spawn(move || {
            let mut text = String::new();
            let _ = reader.read_to_string(&mut text);
            text
        });

        // Fill the wedged subscriber's socket buffers (a few MB on
        // loopback) through the same writer the progress sink uses. At
        // most one line may wait out the timeout; at the parent commit
        // this blocked forever.
        let (done, filled) = mpsc::channel();
        let subs = Arc::clone(&server.subs);
        let filler = std::thread::spawn(move || {
            let mut fanout = FanoutWriter { subs: Arc::clone(&subs) };
            let line = format!("{{\"filler\": \"{}\"}}\n", "x".repeat(1000));
            let mut lines = 0u64;
            while subs.lock().expect("subs").len() == 2 && lines < 64 * 1024 {
                fanout.write_all(line.as_bytes()).expect("fanout never fails");
                lines += 1;
            }
            let _ = done.send(lines);
        });
        let lines = filled
            .recv_timeout(SUBSCRIBER_WRITE_TIMEOUT + Duration::from_secs(30))
            .expect("fan-out wedged on the subscriber that does not read");
        filler.join().expect("filler thread");
        assert_eq!(server.subs.lock().expect("subs").len(), 1, "after {lines} lines");

        // Job threads emit through that fan-out: jobs naming no known
        // workload quarantine at once (class `config`), one event each.
        let jobs: Vec<JobSpec> = (0..32)
            .map(|i| JobSpec {
                tenant: "t".to_string(),
                app: format!("NO-SUCH-APP-{i}"),
                design: "Baseline".to_string(),
                priority: 2,
                deadline_secs: None,
                chaos: None,
            })
            .collect();
        assert_eq!(server.daemon.submit_jobs(jobs).len(), 32);
        let mut ctl = TcpStream::connect(addr).expect("connect");
        ctl.write_all(b"{\"cmd\":\"drain\"}\n").expect("send drain");
        let mut reply = String::new();
        BufReader::new(&ctl).read_line(&mut reply).expect("drain reply");
        assert!(reply.starts_with("{\"ok\":true"), "{reply}");
        serving.join().expect("accept loop");

        healthy.shutdown(Shutdown::Both).expect("close healthy subscriber");
        let text = collector.join().expect("collector");
        assert!(text.ends_with('\n'), "stream ended inside a line");
        let got: Vec<&str> = text.lines().collect();
        assert!(got.iter().all(|l| l.starts_with('{') && l.ends_with('}')), "torn line");
        let quarantined = got.iter().filter(|l| l.contains("\"event\": \"quarantined\"")).count();
        assert_eq!((got.len() as u64, quarantined), (lines + 32, 32));
    }
}
