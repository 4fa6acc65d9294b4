//! The line-delimited JSON wire protocol.
//!
//! One request per line, one reply per line. Five commands:
//!
//! | cmd         | fields                                                        |
//! |-------------|---------------------------------------------------------------|
//! | `submit`    | `tenant`, and `grid`/`only`/`designs` or explicit `points`;   |
//! |             | optional `priority`, `deadline_secs`, `chaos`                 |
//! | `status`    | optional `tenant` filter                                      |
//! | `cancel`    | `tenant`, optional `job` id                                   |
//! | `subscribe` | — (the connection becomes a progress-event stream)            |
//! | `drain`     | — (finish queued work, refuse new work, then shut down)       |
//!
//! Parsing rides the workspace's own JSON reader (`dcl1_obs::json`);
//! malformed requests produce an error reply, never a dropped
//! connection.

use crate::queue::JobSpec;
use dcl1::GpuConfig;
use dcl1::SimOptions;
use dcl1_bench::grid;
use dcl1_obs::json::Json;
use dcl1_workloads::by_name;

/// A submit command, before expansion into concrete jobs.
#[derive(Debug, Clone, PartialEq)]
pub struct Submit {
    /// Owning tenant (required, non-empty).
    pub tenant: String,
    /// Base priority class, 0 most urgent. Defaults to 2.
    pub priority: u8,
    /// Submit the full default sweep grid.
    pub grid: bool,
    /// Label substring filters applied to the grid.
    pub only: Vec<String>,
    /// Design names for the grid (empty → the default four).
    pub designs: Vec<String>,
    /// Explicit `(app, design)` points, alternative to `grid`.
    pub points: Vec<(String, String)>,
    /// Per-job deadline in seconds.
    pub deadline_secs: Option<u64>,
    /// Tenant-scoped chaos seed.
    pub chaos: Option<u64>,
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Enqueue jobs.
    Submit(Submit),
    /// Report daemon and tenant state.
    Status {
        /// Restrict the reply to one tenant.
        tenant: Option<String>,
    },
    /// Withdraw queued jobs.
    Cancel {
        /// Whose jobs to withdraw.
        tenant: String,
        /// A specific job id, or every queued job when `None`.
        job: Option<u64>,
    },
    /// Turn this connection into a progress-event stream.
    Subscribe,
    /// Drain the queue and shut down.
    Drain,
}

fn str_field(doc: &Json, key: &str) -> Option<String> {
    doc.get(key).and_then(Json::as_str).map(String::from)
}

fn u64_field(doc: &Json, key: &str) -> Option<u64> {
    let v = doc.get(key)?.as_f64()?;
    if v.is_finite() && v >= 0.0 {
        #[expect(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        // checked non-negative; ids and seconds are far below 2^53
        Some(v as u64)
    } else {
        None
    }
}

fn str_list(doc: &Json, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_str).map(String::from).collect())
        .unwrap_or_default()
}

/// The `points` list of a submit, every entry an `{"app":…,"design":…}`
/// object of two strings. One entry of any other shape refuses the whole
/// submit, naming its index: a submit is accepted with every job it names
/// or not at all.
fn points(doc: &Json) -> Result<Vec<(String, String)>, String> {
    let Some(entries) = doc.get("points") else { return Ok(Vec::new()) };
    let entries = entries.as_arr().ok_or("points must be a list")?;
    entries
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let field = |key: &str| p.get(key).and_then(Json::as_str).map(String::from);
            field("app").zip(field("design")).ok_or_else(|| {
                format!("points[{i}] must be {{\"app\":\"…\",\"design\":\"…\"}}")
            })
        })
        .collect()
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a human-readable message for malformed JSON, a missing or
/// unknown `cmd`, missing required fields, or a submit `points` entry that
/// is not an `{"app":…,"design":…}` object.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let doc = Json::parse(line).map_err(|e| format!("bad json: {e}"))?;
    let cmd = str_field(&doc, "cmd").ok_or("missing cmd")?;
    match cmd.as_str() {
        "submit" => {
            let tenant = str_field(&doc, "tenant").filter(|t| !t.is_empty());
            let tenant = tenant.ok_or("submit requires a non-empty tenant")?;
            let grid = matches!(doc.get("grid"), Some(Json::Bool(true)));
            let points = points(&doc)?;
            let priority =
                u8::try_from(u64_field(&doc, "priority").unwrap_or(2).min(255)).unwrap_or(255);
            Ok(Request::Submit(Submit {
                tenant,
                priority,
                grid,
                only: str_list(&doc, "only"),
                designs: str_list(&doc, "designs"),
                points,
                deadline_secs: u64_field(&doc, "deadline_secs"),
                chaos: u64_field(&doc, "chaos"),
            }))
        }
        "status" => Ok(Request::Status { tenant: str_field(&doc, "tenant") }),
        "cancel" => {
            let tenant = str_field(&doc, "tenant").ok_or("cancel requires a tenant")?;
            Ok(Request::Cancel { tenant, job: u64_field(&doc, "job") })
        }
        "subscribe" => Ok(Request::Subscribe),
        "drain" => Ok(Request::Drain),
        other => Err(format!("unknown cmd {other:?}")),
    }
}

/// Expands a submit into concrete job specs, validating every workload
/// and design name up front so a bad point is refused at the door
/// instead of quarantining later.
///
/// # Errors
///
/// Returns a message naming the first unknown workload or design, or
/// complaining when the submit names no work at all.
pub fn expand_submit(sub: &Submit) -> Result<Vec<JobSpec>, String> {
    let mut specs = Vec::new();
    let job = |app: &str, design: &str| JobSpec {
        tenant: sub.tenant.clone(),
        app: app.to_string(),
        design: design.to_string(),
        priority: sub.priority,
        deadline_secs: sub.deadline_secs,
        chaos: sub.chaos,
    };
    if sub.grid {
        let cfg = GpuConfig::default();
        let designs = grid::parse_designs(&sub.designs, &cfg)?;
        for req in grid::build_grid(&designs, &sub.only, &cfg, SimOptions::default()) {
            specs.push(job(req.app.name, &req.design.name()));
        }
    }
    for (app, design) in &sub.points {
        if by_name(app).is_none() {
            return Err(format!("unknown workload {app:?}"));
        }
        if design.parse::<dcl1::Design>().is_err() {
            return Err(format!("unknown design {design:?}"));
        }
        specs.push(job(app, design));
    }
    if specs.is_empty() {
        return Err("submit names no jobs (set grid:true or points:[...])".to_string());
    }
    Ok(specs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcl1_workloads::all_apps;

    #[test]
    fn parses_each_command() {
        let r = parse_request(
            "{\"cmd\":\"submit\",\"tenant\":\"a\",\"grid\":true,\"only\":[\"C-BLK\"],\
             \"priority\":1,\"deadline_secs\":30,\"chaos\":7}",
        )
        .expect("submit parses");
        let Request::Submit(s) = r else { panic!("not a submit") };
        assert_eq!(s.tenant, "a");
        assert!(s.grid);
        assert_eq!(s.only, vec!["C-BLK"]);
        assert_eq!(s.priority, 1);
        assert_eq!(s.deadline_secs, Some(30));
        assert_eq!(s.chaos, Some(7));

        assert_eq!(
            parse_request("{\"cmd\":\"status\",\"tenant\":\"b\"}"),
            Ok(Request::Status { tenant: Some("b".to_string()) })
        );
        assert_eq!(
            parse_request("{\"cmd\":\"cancel\",\"tenant\":\"b\",\"job\":9}"),
            Ok(Request::Cancel { tenant: "b".to_string(), job: Some(9) })
        );
        assert_eq!(parse_request("{\"cmd\":\"subscribe\"}"), Ok(Request::Subscribe));
        assert_eq!(parse_request("{\"cmd\":\"drain\"}"), Ok(Request::Drain));
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request("{\"cmd\":\"fly\"}").is_err());
        assert!(parse_request("{\"cmd\":\"submit\"}").is_err(), "tenant required");
        assert!(parse_request("{\"cmd\":\"submit\",\"tenant\":\"\"}").is_err());
        assert!(parse_request("{\"cmd\":\"cancel\"}").is_err());
    }

    #[test]
    fn a_malformed_point_refuses_the_whole_submit() {
        let submit = |points: &str| {
            parse_request(&format!(r#"{{"cmd":"submit","tenant":"a","points":{points}}}"#))
        };
        // The pair shape an older README showed is refused, not read as a
        // submit naming no jobs.
        let err = submit(r#"[["C-BLK","sh16"]]"#).expect_err("a pair is not a point");
        assert!(err.contains("points[0]"), "{err}");
        // A mixed list is refused whole, naming its first bad entry, rather
        // than accepted with fewer jobs than were sent.
        let mixed = r#"[{"app":"C-BLK","design":"sh16"},{"app":"C-BLK"},{"app":"C-BLK","design":7}]"#;
        let err = submit(mixed).expect_err("a point without a design");
        assert!(err.contains("points[1]"), "{err}");
        assert!(submit(r#"{"app":"C-BLK","design":"sh16"}"#).is_err(), "not a list");

        let good = submit(r#"[{"app":"C-BLK","design":"sh16"},{"app":"C-NN","design":"pr4"}]"#);
        let Ok(Request::Submit(sub)) = good else { panic!("a valid submit: {good:?}") };
        assert_eq!(expand_submit(&sub).expect("valid points").len(), 2);
    }

    fn bare_submit(tenant: &str) -> Submit {
        Submit {
            tenant: tenant.to_string(),
            priority: 2,
            grid: false,
            only: Vec::new(),
            designs: Vec::new(),
            points: Vec::new(),
            deadline_secs: None,
            chaos: None,
        }
    }

    #[test]
    fn grid_submit_expands_to_the_full_sweep() {
        let sub = Submit { grid: true, ..bare_submit("a") };
        let specs = expand_submit(&sub).expect("grid expands");
        assert_eq!(specs.len(), all_apps().len() * 4);
        assert!(specs.iter().all(|s| s.tenant == "a"));
        // Design names written into specs must round-trip back to designs.
        for s in &specs {
            assert!(s.design.parse::<dcl1::Design>().is_ok(), "bad name {:?}", s.design);
        }
    }

    #[test]
    fn explicit_points_are_validated_at_the_door() {
        let mut sub = bare_submit("a");
        sub.points = vec![("C-BLK".to_string(), "pr4".to_string())];
        assert_eq!(expand_submit(&sub).expect("valid point").len(), 1);

        sub.points = vec![("NO-SUCH-APP".to_string(), "pr4".to_string())];
        assert!(expand_submit(&sub).is_err());
        sub.points = vec![("C-BLK".to_string(), "warp-drive".to_string())];
        assert!(expand_submit(&sub).is_err());
        assert!(expand_submit(&bare_submit("a")).is_err(), "no work named");
    }
}
