//! The `dcl1d` daemon binary; `--help` lists the options. Scale and
//! cache placement come from the usual `DCL1_SCALE` / `DCL1_CACHE_DIR`
//! environment, read inside the library layers.

use dcl1_bench::cli::Kind::{Switch, Value};
use dcl1_bench::cli::{Cli, Flag};
use dcl1d::queue::Quotas;
use dcl1d::scheduler::DaemonConfig;
use dcl1d::server::Server;
use std::num::NonZeroUsize;
use std::path::PathBuf;

const CLI: Cli = Cli {
    bin: "dcl1d",
    about: "Serves simulation jobs over line-delimited JSON on TCP until a client drains it.",
    positionals: None,
    flags: &[&[
        Flag::new("addr", Value("HOST:PORT"), "where to listen (default 127.0.0.1:4411)"),
        Flag::new("port-file", Value("PATH"), "write the bound address there"),
        Flag::new("workers", Value("N"), "simulation threads (default 2)"),
        Flag::new("journal", Value("PATH"), "queue journal: every accepted job, before its ack"),
        Flag::new("resume", Switch, "re-enqueue the journal's accepted-but-unfinished jobs"),
        Flag::new("max-queued", Value("N"), "queued jobs across every tenant (default 1024)"),
        Flag::new("tenant-queued", Value("N"), "queued jobs per tenant (default 512)"),
        Flag::new("tenant-inflight", Value("N"), "running jobs per tenant (default 2)"),
    ]],
};

fn main() {
    let args = CLI.parse(std::env::args().skip(1));
    let defaults = Quotas::default();
    let cfg = DaemonConfig {
        workers: args.value("workers").map_or(2, NonZeroUsize::get),
        quotas: Quotas {
            max_queued: args.value("max-queued").unwrap_or(defaults.max_queued),
            tenant_queued: args.value("tenant-queued").unwrap_or(defaults.tenant_queued),
            tenant_inflight: args
                .value("tenant-inflight")
                .map_or(defaults.tenant_inflight, NonZeroUsize::get),
        },
        journal: args.value::<PathBuf>("journal"),
        resume: args.switch("resume"),
        ..DaemonConfig::default()
    };
    let addr = args.value("addr").unwrap_or_else(|| "127.0.0.1:4411".to_string());
    let port_file: Option<String> = args.value("port-file");

    let server = match Server::launch(&addr, cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("dcl1d: failed to launch on {addr}: {e}");
            std::process::exit(1);
        }
    };

    match server.local_addr() {
        Ok(bound) => {
            if let Some(path) = &port_file {
                if let Err(e) = std::fs::write(path, bound.to_string()) {
                    eprintln!("dcl1d: cannot write port file {path}: {e}");
                    std::process::exit(1);
                }
            }
            eprintln!("dcl1d: listening on {bound}");
        }
        Err(e) => {
            eprintln!("dcl1d: listener lost: {e}");
            std::process::exit(1);
        }
    }

    server.serve();
    eprintln!("dcl1d: drained, shutting down");
}
