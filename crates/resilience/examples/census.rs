//! Prints the fault census a chaos seed induces over a set of point
//! labels — used to pick CI seeds that exercise every fault class.
//!
//! Usage: feed one `APP/DESIGN` label per line on stdin:
//!
//! ```text
//! grep '^=== ' ref-stats.txt | sed 's/^=== //' \
//!   | cargo run -p dcl1-resilience --example census -- SEED
//! ```

use dcl1_resilience::{Chaos, Fault};

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .expect("usage: census SEED  (labels on stdin)");
    let chaos = Chaos::new(seed);
    let mut counts = [0usize; 3];
    for line in std::io::stdin().lines() {
        let point = line.expect("read stdin");
        if point.is_empty() {
            continue;
        }
        let (slot, tag) = match chaos.fault_for(&point) {
            Some(Fault::PersistentPanic) => (0, "persistent"),
            Some(Fault::Stall) => (1, "stall"),
            Some(Fault::CorruptCache) => (2, "corrupt"),
            None => continue,
        };
        counts[slot] += 1;
        println!("{tag} {point}");
    }
    println!("persistent={} stall={} corrupt={}", counts[0], counts[1], counts[2]);
}
