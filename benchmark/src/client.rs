//! The `dcl1d` wire client the daemon workloads drive: request lines out,
//! reply and progress-event lines in, over plain loopback TCP.

use crate::json::{self, Json};
use dcl1_bench::runner::RunRequest;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How long a reply or the next progress event may take before the run
/// is declared lost. Far above anything a healthy run shows.
pub const LOST_AFTER: Duration = Duration::from_secs(90);

/// A point as the `submit` command names it: `(app, design)`.
pub fn wire_point(req: &RunRequest) -> (String, String) {
    (req.app.name.to_string(), req.design.name())
}

/// One `submit` request line with explicit points, in the given order.
pub fn submit_line(tenant: &str, priority: u8, points: &[(String, String)]) -> String {
    let points: Vec<Json> = points
        .iter()
        .map(|(app, design)| json::obj([("app", json::text(app)), ("design", json::text(design))]))
        .collect();
    let doc = json::obj([
        ("cmd", json::text("submit")),
        ("tenant", json::text(tenant)),
        ("priority", json::num(f64::from(priority))),
        ("points", Json::Arr(points)),
    ]);
    json::render(&doc).expect("a submit line holds no non-finite number")
}

/// A line-oriented connection. Reads go through an own buffer so a read
/// that times out half-way through a line loses nothing.
pub struct LineConn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl LineConn {
    pub fn connect(addr: SocketAddr) -> Result<LineConn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("set_nodelay: {e}"))?;
        Ok(LineConn {
            stream,
            buf: Vec::new(),
        })
    }

    pub fn send(&mut self, line: &str) -> Result<(), String> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.stream
            .write_all(&bytes)
            .map_err(|e| format!("send: {e}"))
    }

    fn take_line(&mut self) -> Option<String> {
        let end = self.buf.iter().position(|b| *b == b'\n')?;
        let line: Vec<u8> = self.buf.drain(..=end).collect();
        Some(String::from_utf8_lossy(&line[..end]).into_owned())
    }

    /// The next line, or `None` once `deadline` passes without one.
    pub fn recv_until(&mut self, deadline: Instant) -> Result<Option<String>, String> {
        loop {
            if let Some(line) = self.take_line() {
                return Ok(Some(line));
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Ok(None);
            }
            self.stream
                .set_read_timeout(Some(left))
                .map_err(|e| format!("set timeout: {e}"))?;
            let mut chunk = [0u8; 16 * 1024];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("daemon closed the connection".to_string()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("recv: {e}")),
            }
        }
    }

    /// The next line; an error if none arrives within [`LOST_AFTER`].
    pub fn recv(&mut self) -> Result<String, String> {
        self.recv_until(Instant::now() + LOST_AFTER)?
            .ok_or_else(|| format!("no line from the daemon within {LOST_AFTER:?}"))
    }

    /// Sends one request and reads its one-line reply.
    pub fn roundtrip(&mut self, line: &str) -> Result<String, String> {
        self.send(line)?;
        self.recv()
    }
}

/// The lifecycle stages the client acts on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    Started,
    Completed,
    Quarantined,
    Other,
}

/// One line of the `subscribe` stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    pub stage: Stage,
    /// `APP/DESIGN`.
    pub point: String,
    /// Set on the daemon's own job-level events, absent on the runner's
    /// point-level ones.
    pub tenant: Option<String>,
}

pub fn parse_event(line: &str) -> Result<Event, String> {
    let doc = Json::parse(line).map_err(|e| format!("bad event line {line:?}: {e}"))?;
    let stage = match json::get_str(&doc, "event")? {
        "started" => Stage::Started,
        "completed" => Stage::Completed,
        "quarantined" => Stage::Quarantined,
        _ => Stage::Other,
    };
    Ok(Event {
        stage,
        point: json::get_str(&doc, "point")?.to_string(),
        tenant: doc.get("tenant").and_then(Json::as_str).map(String::from),
    })
}

/// The verdict counts of a `submit` reply.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ack {
    pub accepted: u64,
    pub shed: u64,
    pub rejected: u64,
}

pub fn parse_ack(reply: &str) -> Result<Ack, String> {
    let doc = Json::parse(reply).map_err(|e| format!("bad submit reply {reply:?}: {e}"))?;
    if doc.get("ok") != Some(&Json::Bool(true)) {
        return Err(format!("submit refused: {reply}"));
    }
    Ok(Ack {
        accepted: json::get_u64(&doc, "accepted")?,
        shed: json::get_u64(&doc, "shed")?,
        rejected: json::get_u64(&doc, "rejected")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_lines_parse_as_the_daemon_reads_them() {
        let line = submit_line("alpha", 1, &[("C-BLK".to_string(), "Sh40".to_string())]);
        let dcl1d::proto::Request::Submit(sub) =
            dcl1d::proto::parse_request(&line).expect("the daemon parses our submit")
        else {
            panic!("not a submit");
        };
        assert_eq!((sub.tenant.as_str(), sub.priority), ("alpha", 1));
        assert_eq!(sub.points, vec![("C-BLK".to_string(), "Sh40".to_string())]);
        assert_eq!(
            dcl1d::proto::expand_submit(&sub)
                .expect("valid point")
                .len(),
            1
        );
    }

    #[test]
    fn every_grid_design_name_survives_the_wire() {
        for req in crate::points::PointSet::Grid.requests() {
            let (_, design) = wire_point(&req);
            let back: dcl1::Design = design.parse().expect("design name parses back");
            assert_eq!(back.name(), design);
        }
    }

    #[test]
    fn events_and_acks_parse() {
        let ev = parse_event(
            "{\"seq\": 3, \"t_ms\": 1, \"event\": \"completed\", \"point\": \"C-NN/Pr40\", \
             \"source\": \"memo\", \"tenant\": \"t1\"}",
        )
        .unwrap();
        assert_eq!(ev.stage, Stage::Completed);
        assert_eq!(
            (ev.point.as_str(), ev.tenant.as_deref()),
            ("C-NN/Pr40", Some("t1"))
        );
        let ev = parse_event("{\"seq\": 1, \"t_ms\": 1, \"event\": \"started\", \"point\": \"p\"}");
        assert_eq!(ev.unwrap().tenant, None);
        assert!(parse_event("not json").is_err());

        let ack = parse_ack("{\"ok\":true,\"accepted\":28,\"shed\":0,\"rejected\":0,\"ids\":[1]}");
        assert_eq!(
            ack.unwrap(),
            Ack {
                accepted: 28,
                shed: 0,
                rejected: 0
            }
        );
        assert!(parse_ack("{\"ok\":false,\"error\":\"x\"}").is_err());
    }
}
