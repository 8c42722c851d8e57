//! Table I — "Number of RSA signatures and homomorphic hashes per second
//! in a system of 1000 nodes (sim)", per video quality.
//!
//! The counts are *measured* by running the protocol and counting every
//! hash exponentiation and signature. The paper reports 33 signatures/s
//! at every quality and hashes/s of 133/475/1170/1560/3934/7200 — about
//! `12 x updates/s` (4-round buffermaps x 3 predecessors, §V-D).

use pag_bench::{header, quick_mode, row};
use pag_runtime::{run_session, SessionConfig};
use pag_streaming::VideoQuality;

fn main() {
    let (nodes, rounds) = if quick_mode() { (16, 4) } else { (30, 6) };
    println!("# Table I — crypto operations per node per second ({nodes}-node sessions)\n");
    header(&[
        "quality",
        "payload (kbps)",
        "paper hashes/s",
        "measured hashes/s",
        "paper sigs/s",
        "measured sigs/s",
    ]);
    let paper_hashes = [133.0, 475.0, 1170.0, 1560.0, 3934.0, 7200.0];
    for (q, paper_h) in VideoQuality::ladder().into_iter().zip(paper_hashes) {
        if quick_mode() && q > VideoQuality::Q360p {
            continue;
        }
        let mut sc = SessionConfig::honest(nodes, rounds);
        sc.pag.stream_rate_kbps = q.rate_kbps();
        let outcome = run_session(sc);
        row(&[
            q.to_string(),
            format!("{:.0}", q.rate_kbps()),
            format!("{paper_h:.0}"),
            format!("{:.0}", outcome.hashes_per_node_per_second()),
            "33".to_string(),
            format!("{:.0}", outcome.signatures_per_node_per_second()),
        ]);
    }
    println!("\nSee the repo benchmark's `crypto.hash_us` (`--trace 1`) for the per-hash");
    println!("cost (the paper: 4800 hashes/s/core at a 512-bit modulus), which together");
    println!("with this table gives the sustainable-quality claim of §VII-C.");
}
