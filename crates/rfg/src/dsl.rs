//! A small policy language compiling to route-flow graphs.
//!
//! §4 ("More operators"): "such a system should have language support
//! for compiling a high-level policy description (or router
//! configuration file) into a compact route-flow graph." This module is
//! that compiler for a deliberately small, line-oriented language:
//!
//! ```text
//! # Figure 2 as a policy program
//! input r1 from AS1
//! input r2 from AS2
//! input r3 from AS3
//! let m = min(r2, r3)
//! let v = shorter_of(r1, m)
//! output v to AS200
//! ```
//!
//! Statements:
//! * `input <name> from AS<n>` — an input variable for a neighbor;
//! * `let <name> = <op>(<args>)` — an internal variable;
//! * `output <name> to AS<n>` — re-binds a computed variable as the
//!   output exported to a neighbor (sugar: `output <op>(...) to AS<n>`);
//! * `#` starts a comment.
//!
//! Operators: `min`, `exists`, `max_local_pref`, `union`, `pick_one`,
//! `shorter_of(a, b)`, `within_hops(ε, x…)`, `keep_community(c, x…)`,
//! `drop_community(c, x…)`, `require_as(ASn, x…)`, `avoid_as(ASn, x…)`,
//! `cover(a.b.c.d/len, x…)`. Communities are written `tag:value`.

use crate::graph::{RouteFlowGraph, VarId};
use crate::ops::OperatorKind;
use pvr_bgp::{Asn, Community, Prefix};
use std::collections::BTreeMap;

/// A compilation error with its 1-based line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DslError {
    /// Line the error occurred on.
    pub line: usize,
    /// Human-readable message.
    pub message: String,
}

impl std::fmt::Display for DslError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for DslError {}

/// The result of compiling a policy program.
#[derive(Debug)]
pub struct CompiledPolicy {
    /// The validated graph.
    pub graph: RouteFlowGraph,
    /// Named variables (inputs, lets, outputs).
    pub bindings: BTreeMap<String, VarId>,
}

fn err(line: usize, message: impl Into<String>) -> DslError {
    DslError { line, message: message.into() }
}

fn parse_asn(token: &str, line: usize) -> Result<Asn, DslError> {
    let digits = token
        .strip_prefix("AS")
        .or_else(|| token.strip_prefix("as"))
        .ok_or_else(|| err(line, format!("expected AS<number>, got `{token}`")))?;
    digits.parse::<u32>().map(Asn).map_err(|_| err(line, format!("bad AS number `{token}`")))
}

fn parse_community(token: &str, line: usize) -> Result<Community, DslError> {
    let (hi, lo) = token
        .split_once(':')
        .ok_or_else(|| err(line, format!("expected community tag:value, got `{token}`")))?;
    let hi = hi.parse().map_err(|_| err(line, format!("bad community `{token}`")))?;
    let lo = lo.parse().map_err(|_| err(line, format!("bad community `{token}`")))?;
    Ok(Community(hi, lo))
}

/// Splits `op(arg1, arg2, …)` into (op, args).
fn parse_call(expr: &str, line: usize) -> Result<(String, Vec<String>), DslError> {
    let open =
        expr.find('(').ok_or_else(|| err(line, format!("expected <op>(…), got `{expr}`")))?;
    if !expr.ends_with(')') {
        return Err(err(line, "missing closing parenthesis"));
    }
    let op = expr[..open].trim().to_string();
    let inner = &expr[open + 1..expr.len() - 1];
    let args: Vec<String> = if inner.trim().is_empty() {
        Vec::new()
    } else {
        inner.split(',').map(|a| a.trim().to_string()).collect()
    };
    Ok((op, args))
}

struct Compiler {
    graph: RouteFlowGraph,
    bindings: BTreeMap<String, VarId>,
}

impl Compiler {
    fn lookup(&self, name: &str, line: usize) -> Result<VarId, DslError> {
        self.bindings
            .get(name)
            .copied()
            .ok_or_else(|| err(line, format!("unknown variable `{name}`")))
    }

    fn lookup_all(&self, names: &[String], line: usize) -> Result<Vec<VarId>, DslError> {
        names.iter().map(|n| self.lookup(n, line)).collect()
    }

    /// Compiles `op(args)` writing into `target`.
    fn compile_call(
        &mut self,
        op: &str,
        args: &[String],
        target: VarId,
        line: usize,
    ) -> Result<(), DslError> {
        let need = |n: usize| -> Result<(), DslError> {
            if args.len() < n {
                Err(err(line, format!("`{op}` needs at least {n} argument(s)")))
            } else {
                Ok(())
            }
        };
        let (kind, inputs) = match op {
            "min" => {
                need(1)?;
                (OperatorKind::MinPathLen, self.lookup_all(args, line)?)
            }
            "exists" => {
                need(1)?;
                (OperatorKind::Existential, self.lookup_all(args, line)?)
            }
            "max_local_pref" => {
                need(1)?;
                (OperatorKind::MaxLocalPref, self.lookup_all(args, line)?)
            }
            "union" => {
                need(1)?;
                (OperatorKind::Union, self.lookup_all(args, line)?)
            }
            "pick_one" => {
                need(1)?;
                (OperatorKind::PickOne, self.lookup_all(args, line)?)
            }
            "shorter_of" => {
                if args.len() != 2 {
                    return Err(err(line, "`shorter_of` takes exactly (fallback, preferred)"));
                }
                (OperatorKind::ShorterOf, self.lookup_all(args, line)?)
            }
            "within_hops" => {
                need(2)?;
                // `u32`: the range the committed operator encoding carries.
                let epsilon: u32 =
                    args[0].parse().map_err(|_| err(line, format!("bad ε `{}`", args[0])))?;
                (OperatorKind::WithinHops { epsilon }, self.lookup_all(&args[1..], line)?)
            }
            "keep_community" | "drop_community" => {
                need(2)?;
                let community = parse_community(&args[0], line)?;
                (
                    OperatorKind::FilterCommunity {
                        community,
                        keep_if_present: op == "keep_community",
                    },
                    self.lookup_all(&args[1..], line)?,
                )
            }
            "require_as" | "avoid_as" => {
                need(2)?;
                let asn = parse_asn(&args[0], line)?;
                (
                    OperatorKind::FilterAsPresence { asn, keep_if_present: op == "require_as" },
                    self.lookup_all(&args[1..], line)?,
                )
            }
            "cover" => {
                need(2)?;
                let cover = Prefix::parse(&args[0])
                    .ok_or_else(|| err(line, format!("bad prefix `{}`", args[0])))?;
                (OperatorKind::FilterPrefix { cover }, self.lookup_all(&args[1..], line)?)
            }
            other => return Err(err(line, format!("unknown operator `{other}`"))),
        };
        self.graph.add_op(kind, &inputs, target);
        Ok(())
    }
}

/// Compiles a policy program into a validated route-flow graph.
pub fn compile(program: &str) -> Result<CompiledPolicy, DslError> {
    let mut c = Compiler { graph: RouteFlowGraph::new(), bindings: BTreeMap::new() };

    for (idx, raw) in program.lines().enumerate() {
        let line = idx + 1;
        let text = raw.split('#').next().unwrap_or("").trim();
        if text.is_empty() {
            continue;
        }
        let mut tokens = text.split_whitespace();
        match tokens.next() {
            Some("input") => {
                // input <name> from AS<n>
                let name = tokens.next().ok_or_else(|| err(line, "input needs a name"))?;
                if tokens.next() != Some("from") {
                    return Err(err(line, "expected `from`"));
                }
                let asn = parse_asn(
                    tokens.next().ok_or_else(|| err(line, "input needs a neighbor"))?,
                    line,
                )?;
                if tokens.next().is_some() {
                    return Err(err(line, "trailing tokens after input"));
                }
                if c.bindings.contains_key(name) {
                    return Err(err(line, format!("`{name}` already defined")));
                }
                let v = c.graph.add_input(name, asn);
                c.bindings.insert(name.to_string(), v);
            }
            Some("let") => {
                // let <name> = <op>(args)
                let name = tokens.next().ok_or_else(|| err(line, "let needs a name"))?;
                if tokens.next() != Some("=") {
                    return Err(err(line, "expected `=`"));
                }
                let expr: String = tokens.collect::<Vec<_>>().join(" ");
                if c.bindings.contains_key(name) {
                    return Err(err(line, format!("`{name}` already defined")));
                }
                let target = c.graph.add_internal(name);
                c.bindings.insert(name.to_string(), target);
                let (op, args) = parse_call(&expr, line)?;
                c.compile_call(&op, &args, target, line)?;
            }
            Some("output") => {
                // output <name> to AS<n>   |   output <op>(args) to AS<n>
                let rest: Vec<&str> = tokens.collect();
                let to_pos = rest
                    .iter()
                    .position(|&t| t == "to")
                    .ok_or_else(|| err(line, "expected `to`"))?;
                let expr = rest[..to_pos].join(" ");
                let target_asn = parse_asn(
                    rest.get(to_pos + 1).ok_or_else(|| err(line, "output needs a neighbor"))?,
                    line,
                )?;
                let out_name = format!("out→{target_asn}");
                let out_var = c.graph.add_output(&out_name, target_asn);
                if expr.contains('(') {
                    let (op, args) = parse_call(&expr, line)?;
                    c.compile_call(&op, &args, out_var, line)?;
                } else {
                    // Re-export a named variable through a PickOne so the
                    // output has a writer.
                    let src = c.lookup(expr.trim(), line)?;
                    c.graph.add_op(OperatorKind::PickOne, &[src], out_var);
                }
                c.bindings.insert(out_name, out_var);
            }
            Some(other) => {
                return Err(err(line, format!("unknown statement `{other}`")));
            }
            None => unreachable!("blank lines filtered"),
        }
    }

    c.graph.validate().map_err(|e| err(0, format!("graph validation failed: {e}")))?;
    Ok(CompiledPolicy { graph: c.graph, bindings: c.bindings })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::promise::Promise;
    use pvr_bgp::{AsPath, Route};
    use std::collections::{BTreeMap as Map, BTreeSet};

    fn route(asns: &[u32]) -> Route {
        let mut r = Route::originate(Prefix::parse("10.0.0.0/8").unwrap());
        r.path = AsPath::from_slice(&asns.iter().map(|&a| Asn(a)).collect::<Vec<_>>());
        r
    }

    #[test]
    fn figure1_program_compiles_and_runs() {
        let policy = compile(
            "# promise 2: shortest of N1..N3\n\
             input r1 from AS1\n\
             input r2 from AS2\n\
             input r3 from AS3\n\
             output min(r1, r2, r3) to AS200\n",
        )
        .unwrap();
        let subset: BTreeSet<Asn> = [Asn(1), Asn(2), Asn(3)].into();
        assert!(Promise::ShortestOfSubset { subset }.implemented_by(&policy.graph, Asn(200)));

        let mut inputs = Map::new();
        inputs.insert(Asn(1), vec![route(&[1, 9, 9])]);
        inputs.insert(Asn(2), vec![route(&[2, 9])]);
        let eval = policy.graph.evaluate(&inputs).unwrap();
        let (out_var, _) = policy.graph.outputs()[0];
        assert_eq!(eval.single(out_var).unwrap().path_len(), 2);
    }

    #[test]
    fn figure2_program_matches_builtin_graph() {
        let policy = compile(
            "input r1 from AS1\n\
             input r2 from AS2\n\
             input r3 from AS3\n\
             let m = min(r2, r3)\n\
             output shorter_of(r1, m) to AS200\n",
        )
        .unwrap();
        let promise =
            Promise::PreferUnlessShorter { fallback: Asn(1), preferred: [Asn(2), Asn(3)].into() };
        assert!(promise.implemented_by(&policy.graph, Asn(200)));
    }

    #[test]
    fn filters_and_epsilon_compile() {
        let policy = compile(
            "input r1 from AS1\n\
             input r2 from AS2\n\
             let merged = union(r1, r2)\n\
             let eu = keep_community(65000:1, merged)\n\
             let no3 = avoid_as(AS3, eu)\n\
             let near = within_hops(2, no3)\n\
             let local = cover(10.0.0.0/8, near)\n\
             output pick_one(local) to AS200\n",
        )
        .unwrap();
        // Evaluate: only the EU-tagged, AS3-free, /8-covered route
        // survives.
        let eu = Community(65000, 1);
        let mut inputs = Map::new();
        inputs.insert(Asn(1), vec![route(&[1, 5]).with_community(eu)]);
        inputs.insert(Asn(2), vec![route(&[2, 3])]); // via AS3, untagged
        let eval = policy.graph.evaluate(&inputs).unwrap();
        let (out_var, _) = policy.graph.outputs()[0];
        assert_eq!(eval.single(out_var).unwrap().path.asns()[0], Asn(1));
    }

    #[test]
    fn named_reexport_works() {
        let policy = compile(
            "input r1 from AS1\n\
             let best = min(r1)\n\
             output best to AS200\n",
        )
        .unwrap();
        assert_eq!(policy.graph.outputs().len(), 1);
        let mut inputs = Map::new();
        inputs.insert(Asn(1), vec![route(&[1])]);
        let eval = policy.graph.evaluate(&inputs).unwrap();
        let (out_var, _) = policy.graph.outputs()[0];
        assert!(eval.single(out_var).is_some());
    }

    #[test]
    fn errors_carry_line_numbers() {
        for (program, expect_line, needle) in [
            ("input r1 from banana", 1, "expected AS"),
            ("let x = ", 1, "expected <op>"),
            ("input r1 from AS1\nlet x = warp(r1)", 2, "unknown operator"),
            ("let x = min(ghost)", 1, "unknown variable"),
            ("bogus statement", 1, "unknown statement"),
            ("input r1 from AS1\ninput r1 from AS2", 2, "already defined"),
            ("input r1 from AS1\nlet x = shorter_of(r1)", 2, "exactly"),
            ("input r1 from AS1\nlet x = keep_community(banana, r1)", 2, "community"),
            ("input r1 from AS1\nlet x = cover(999.0.0.0/8, r1)", 2, "bad prefix"),
            ("input r1 from AS1\nlet x = within_hops(abc, r1)", 2, "bad ε"),
            // One past what the committed operator encoding carries.
            ("input r1 from AS1\nlet x = within_hops(4294967296, r1)", 2, "bad ε `4294967296`"),
            ("output ghost to AS200", 1, "unknown variable"),
        ] {
            let e = compile(program).unwrap_err();
            assert_eq!(e.line, expect_line, "{program:?} → {e}");
            assert!(e.message.contains(needle), "{program:?} → {e}");
        }
    }

    #[test]
    fn uncomputed_output_fails_validation() {
        // `output` always wires a writer, so this failure mode comes
        // from cycles instead.
        let e = compile(
            "let a = union(b)\n\
             let b = union(a)\n",
        );
        // b referenced before defined → unknown variable at line 1.
        assert!(e.is_err());
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let policy = compile(
            "\n# a comment\n\n\
             input r1 from AS1   # trailing comment\n\
             output exists(r1) to AS200\n\n",
        )
        .unwrap();
        assert_eq!(policy.graph.inputs().len(), 1);
    }
}
