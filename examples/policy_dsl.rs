//! The §4 "language support" challenge: compile a high-level policy
//! description into a route-flow graph, check it against a promise,
//! and run a committed PVR round over it.
//!
//! Run with: `cargo run --example policy_dsl`

use pvr::bgp::Asn;
use pvr::core::{Cast, Committer};
use pvr::crypto::HmacDrbg;
use pvr::rfg::{compile_policy, Promise};
use std::collections::BTreeSet;

fn main() {
    println!("=== Policy DSL → route-flow graph → PVR round ===\n");

    // The Figure 2 contract, written as an operator pipeline instead of
    // hand-built graph code.
    let program = "\
# Figure 2: export some route via N2..N3 unless N1 is strictly shorter
input r1 from AS1
input r2 from AS2
input r3 from AS3
let m = min(r2, r3)
output shorter_of(r1, m) to AS200
";
    println!("policy program:\n{program}");
    let policy = compile_policy(program).expect("compiles");
    println!(
        "compiled: {} variables, {} operators",
        policy.graph.vars().count(),
        policy.graph.ops().count()
    );

    // Static promise check straight off the compiled graph.
    let promise = Promise::PreferUnlessShorter {
        fallback: Asn(1),
        preferred: [Asn(2), Asn(3)].into_iter().collect::<BTreeSet<_>>(),
    };
    assert!(promise.implemented_by(&policy.graph, Asn(200)));
    println!("static check: compiled graph implements the Figure 2 promise\n");

    // Run a committed round over it, with inputs built by the harness.
    let bed = pvr::core::Figure1Bed::build_figure2(&[3, 3, 5], 99);
    let mut rng = HmacDrbg::from_u64_labeled(99, "dsl-example");
    let committer = Committer::new(&Cast { graph: &policy.graph, ..bed.cast() }, &mut rng);
    let exported = committer.export_route(bed.b).expect("an export");
    println!("A evaluated the compiled policy and exports {}", exported.route);
    assert_eq!(
        exported.route.path.asns()[1],
        Asn(2),
        "tie between N1 and N2 goes to the preferred side"
    );

    // A second program showing filters: EU-only partial transit with a
    // path-length guard.
    let program2 = "\
input r1 from AS1
input r2 from AS2
let merged = union(r1, r2)
let eu = keep_community(65000:1, merged)
let near = within_hops(1, eu)
output pick_one(near) to AS300
";
    let policy2 = compile_policy(program2).expect("compiles");
    println!(
        "\nsecond program compiled: {} operators (filters + ε-guard)",
        policy2.graph.ops().count()
    );

    // Error reporting has line numbers:
    let bad = "input r1 from AS1\nlet x = teleport(r1)\n";
    let e = compile_policy(bad).unwrap_err();
    println!("\nerror reporting: {e}");

    println!("\n=== done ===");
}
