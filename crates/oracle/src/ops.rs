//! Fuzz cases and the replayable corpus text format.
//!
//! A [`Case`] is one self-contained differential-fuzzing input: a scheme,
//! an initial state, and an operation sequence, all derived from one
//! seed. Cases render to (and parse from) a plain-text fixture so a
//! shrunken failure can be checked into `tests/corpus/` and replayed by
//! `idr fuzz --replay` and the `corpus_replay` test forever.
//!
//! ## Fixture format
//!
//! ```text
//! # free-form comments
//! seed: 42
//! scheme:
//! universe: K A0 A1 A2
//! scheme R0: K A0 keys K
//! state:
//! R0: K=k A0=x0
//! ops:
//! insert R1: K=k A1=y
//! bdelete steps=0 R0: K=k A0=x0
//! query K A0
//! poison
//! finsert nth=1 kind=permanent R1: K=k A1=z
//! ```
//!
//! The `scheme:` and `state:` sections reuse the `idr` CLI's file
//! formats verbatim ([`idr_relation::parse`]); the `ops:` section is one
//! operation per line, with tuples written as quoted-free state lines.

use idr_relation::exec::FaultKind;
use idr_relation::parse::{
    parse_scheme, parse_tuple_line, render_scheme_file, render_tuple_line,
};
use idr_relation::{AttrSet, DatabaseScheme, DatabaseState, SymbolTable, Tuple};

/// One step of a fuzz case, interpreted in lockstep against every oracle.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// Unbudgeted insert of `t` into relation `rel`.
    Insert {
        /// Target relation index.
        rel: usize,
        /// The tuple (total on the relation's attributes).
        t: Tuple,
    },
    /// Unbudgeted delete of `t` from relation `rel`.
    Delete {
        /// Target relation index.
        rel: usize,
        /// The tuple to remove.
        t: Tuple,
    },
    /// X-total projection, compared across all four oracles.
    Query {
        /// The projection attributes.
        x: AttrSet,
    },
    /// Provenance probe: every answer tuple must have a chase witness.
    Explain {
        /// The projection attributes.
        x: AttrSet,
    },
    /// Insert under a step budget — exercises guard trips at the step
    /// boundary (the hubs must stay atomic). The budget caps both
    /// meters: lookups (Algorithm 2 on IR blocks) and chase steps (the
    /// whole-state chase of a non-IR scheme).
    BudgetInsert {
        /// `max_chase_steps` and `max_lookups` for this op's guard.
        steps: u64,
        /// Target relation index.
        rel: usize,
        /// The tuple.
        t: Tuple,
    },
    /// Delete under a step budget capping both meters, as for
    /// [`Op::BudgetInsert`] (an IR block's rebuild charges lookups).
    BudgetDelete {
        /// `max_chase_steps` and `max_lookups` for this op's guard.
        steps: u64,
        /// Target relation index.
        rel: usize,
        /// The tuple.
        t: Tuple,
    },
    /// Query under a step budget capping both meters, as for
    /// [`Op::BudgetInsert`].
    BudgetQuery {
        /// `max_chase_steps` and `max_lookups` for this op's guard.
        steps: u64,
        /// The projection attributes.
        x: AttrSet,
    },
    /// Poisons both engines' expression caches the way a panicked
    /// evaluation thread would; the interpreter then asserts the next
    /// query surfaces a typed error and the one after recovers.
    Poison,
    /// Runs Algorithm 2 maintenance for `(rel, t)` under a
    /// [`FaultInjector`](idr_core::exec::FaultInjector) firing on the
    /// `nth` selection, and checks the fault contract against the
    /// fault-free baseline. Does not modify the state.
    FaultInsert {
        /// 1-based selection call that faults.
        nth: u64,
        /// Transient (retried) or permanent (surfaces immediately).
        kind: FaultKind,
        /// Target relation index.
        rel: usize,
        /// The tuple.
        t: Tuple,
    },
}

impl Op {
    /// The relation index this op targets, when it targets one.
    pub fn rel(&self) -> Option<usize> {
        match self {
            Op::Insert { rel, .. }
            | Op::Delete { rel, .. }
            | Op::BudgetInsert { rel, .. }
            | Op::BudgetDelete { rel, .. }
            | Op::FaultInsert { rel, .. } => Some(*rel),
            _ => None,
        }
    }
}

/// A complete fuzz case: everything needed to replay one differential
/// run. The symbol table is part of the case so tuples render back to
/// the values they were generated from.
#[derive(Clone, Debug)]
pub struct Case {
    /// The generator seed this case was derived from (0 for hand-written
    /// fixtures).
    pub seed: u64,
    /// The scheme under test.
    pub db: DatabaseScheme,
    /// Interned constants for `state` and the op tuples.
    pub symbols: SymbolTable,
    /// The initial state.
    pub state: DatabaseState,
    /// The op sequence.
    pub ops: Vec<Op>,
}

fn render_attrs(db: &DatabaseScheme, x: AttrSet) -> String {
    let u = db.universe();
    x.iter().map(|a| u.name(a)).collect::<Vec<_>>().join(" ")
}

fn parse_attrs(db: &DatabaseScheme, toks: &str) -> Result<AttrSet, String> {
    let mut x = AttrSet::empty();
    for tok in toks.split_whitespace() {
        let a = db
            .universe()
            .attr(tok)
            .ok_or_else(|| format!("unknown attribute {tok:?}"))?;
        x.insert(a);
    }
    if x.is_empty() {
        return Err("empty attribute list".to_string());
    }
    Ok(x)
}

/// Strips one `key=value` prefix token (e.g. `steps=0`) off `rest`.
fn take_kv<'a>(rest: &'a str, key: &str) -> Result<(&'a str, &'a str), String> {
    let rest = rest.trim_start();
    let (tok, tail) = rest.split_once(char::is_whitespace).unwrap_or((rest, ""));
    let value = tok
        .strip_prefix(key)
        .and_then(|t| t.strip_prefix('='))
        .ok_or_else(|| format!("expected {key}=..., got {tok:?}"))?;
    Ok((value, tail))
}

impl Op {
    /// Renders the op as one `ops:`-section line.
    pub fn render(&self, db: &DatabaseScheme, symbols: &SymbolTable) -> String {
        let tl = |rel: &usize, t: &Tuple| render_tuple_line(db, symbols, *rel, t);
        match self {
            Op::Insert { rel, t } => format!("insert {}", tl(rel, t)),
            Op::Delete { rel, t } => format!("delete {}", tl(rel, t)),
            Op::Query { x } => format!("query {}", render_attrs(db, *x)),
            Op::Explain { x } => format!("explain {}", render_attrs(db, *x)),
            Op::BudgetInsert { steps, rel, t } => {
                format!("binsert steps={steps} {}", tl(rel, t))
            }
            Op::BudgetDelete { steps, rel, t } => {
                format!("bdelete steps={steps} {}", tl(rel, t))
            }
            Op::BudgetQuery { steps, x } => {
                format!("bquery steps={steps} {}", render_attrs(db, *x))
            }
            Op::Poison => "poison".to_string(),
            Op::FaultInsert { nth, kind, rel, t } => {
                let kind = match kind {
                    FaultKind::Transient => "transient",
                    FaultKind::Permanent => "permanent",
                };
                format!("finsert nth={nth} kind={kind} {}", tl(rel, t))
            }
        }
    }

    /// Parses one `ops:`-section line.
    pub fn parse(
        line: &str,
        db: &DatabaseScheme,
        symbols: &mut SymbolTable,
    ) -> Result<Op, String> {
        let (verb, rest) = line
            .trim()
            .split_once(char::is_whitespace)
            .unwrap_or((line.trim(), ""));
        let tuple = |rest: &str, symbols: &mut SymbolTable| parse_tuple_line(rest, db, symbols);
        match verb {
            "insert" => tuple(rest, symbols).map(|(rel, t)| Op::Insert { rel, t }),
            "delete" => tuple(rest, symbols).map(|(rel, t)| Op::Delete { rel, t }),
            "query" => parse_attrs(db, rest).map(|x| Op::Query { x }),
            "explain" => parse_attrs(db, rest).map(|x| Op::Explain { x }),
            "binsert" | "bdelete" => {
                let (steps, tail) = take_kv(rest, "steps")?;
                let steps = steps
                    .parse::<u64>()
                    .map_err(|_| format!("steps needs an unsigned integer, got {steps:?}"))?;
                let (rel, t) = tuple(tail, symbols)?;
                Ok(if verb == "binsert" {
                    Op::BudgetInsert { steps, rel, t }
                } else {
                    Op::BudgetDelete { steps, rel, t }
                })
            }
            "bquery" => {
                let (steps, tail) = take_kv(rest, "steps")?;
                let steps = steps
                    .parse::<u64>()
                    .map_err(|_| format!("steps needs an unsigned integer, got {steps:?}"))?;
                parse_attrs(db, tail).map(|x| Op::BudgetQuery { steps, x })
            }
            "poison" => Ok(Op::Poison),
            "finsert" => {
                let (nth, tail) = take_kv(rest, "nth")?;
                let nth = nth
                    .parse::<u64>()
                    .map_err(|_| format!("nth needs an unsigned integer, got {nth:?}"))?;
                let (kind, tail) = take_kv(tail, "kind")?;
                let kind = match kind {
                    "transient" => FaultKind::Transient,
                    "permanent" => FaultKind::Permanent,
                    other => return Err(format!("unknown fault kind {other:?}")),
                };
                let (rel, t) = tuple(tail, symbols)?;
                Ok(Op::FaultInsert { nth, kind, rel, t })
            }
            other => Err(format!("unknown op {other:?}")),
        }
    }
}

impl Case {
    /// Renders the case as a replayable corpus fixture.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("# idr-oracle corpus fixture — replay with `idr fuzz --replay <file>`\n");
        out.push_str(&format!("seed: {}\n", self.seed));
        out.push_str("scheme:\n");
        out.push_str(&render_scheme_file(&self.db));
        out.push_str("state:\n");
        for (i, t) in self.state.iter_all() {
            out.push_str(&render_tuple_line(&self.db, &self.symbols, i, t));
            out.push('\n');
        }
        out.push_str("ops:\n");
        for op in &self.ops {
            out.push_str(&op.render(&self.db, &self.symbols));
            out.push('\n');
        }
        out
    }

    /// Parses a corpus fixture back into a case.
    pub fn parse(text: &str) -> Result<Case, String> {
        #[derive(PartialEq)]
        enum Section {
            Preamble,
            Scheme,
            State,
            Ops,
        }
        let mut section = Section::Preamble;
        let mut seed = 0u64;
        let mut scheme_lines = String::new();
        let mut state_lines: Vec<(usize, String)> = Vec::new();
        let mut op_lines: Vec<(usize, String)> = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let at = |msg: String| format!("line {}: {msg}", lineno + 1);
            match line {
                "scheme:" => section = Section::Scheme,
                "state:" => section = Section::State,
                "ops:" => section = Section::Ops,
                _ => match section {
                    Section::Preamble => {
                        let rest = line
                            .strip_prefix("seed:")
                            .ok_or_else(|| at(format!("expected 'seed: N', got {line:?}")))?;
                        seed = rest.trim().parse::<u64>().map_err(|_| {
                            at(format!("seed needs an unsigned integer, got {:?}", rest.trim()))
                        })?;
                    }
                    Section::Scheme => {
                        scheme_lines.push_str(line);
                        scheme_lines.push('\n');
                    }
                    Section::State => state_lines.push((lineno, line.to_string())),
                    Section::Ops => op_lines.push((lineno, line.to_string())),
                },
            }
        }
        let db = parse_scheme(&scheme_lines)?;
        let mut symbols = SymbolTable::new();
        let mut state = DatabaseState::empty(&db);
        for (lineno, line) in &state_lines {
            let (i, t) = parse_tuple_line(line, &db, &mut symbols)
                .map_err(|e| format!("line {}: {e}", lineno + 1))?;
            state
                .insert(i, t)
                .map_err(|e| format!("line {}: {e}", lineno + 1))?;
        }
        let mut ops = Vec::with_capacity(op_lines.len());
        for (lineno, line) in &op_lines {
            ops.push(
                Op::parse(line, &db, &mut symbols)
                    .map_err(|e| format!("line {}: {e}", lineno + 1))?,
            );
        }
        if ops.is_empty() && state_lines.is_empty() {
            return Err("fixture has neither state nor ops".to_string());
        }
        Ok(Case {
            seed,
            db,
            symbols,
            state,
            ops,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_case() -> Case {
        let db = idr_workload::generators::star_scheme(2);
        let u = db.universe().clone();
        let mut symbols = SymbolTable::new();
        let mut state = DatabaseState::empty(&db);
        let k = symbols.intern("k0");
        let t0 = Tuple::from_pairs([(u.attr_of("K"), k), (u.attr_of("A0"), symbols.intern("x"))]);
        state.insert(0, t0.clone()).unwrap();
        let t1 = Tuple::from_pairs([(u.attr_of("K"), k), (u.attr_of("A1"), symbols.intern("y"))]);
        let x = AttrSet::from_iter([u.attr_of("K"), u.attr_of("A1")]);
        let ops = vec![
            Op::Insert { rel: 1, t: t1.clone() },
            Op::Query { x },
            Op::BudgetDelete { steps: 0, rel: 0, t: t0 },
            Op::BudgetQuery { steps: 1, x },
            Op::Explain { x },
            Op::Poison,
            Op::FaultInsert {
                nth: 1,
                kind: FaultKind::Permanent,
                rel: 1,
                t: t1,
            },
        ];
        Case {
            seed: 7,
            db,
            symbols,
            state,
            ops,
        }
    }

    #[test]
    fn fixtures_round_trip() {
        let case = sample_case();
        let text = case.render();
        let back = Case::parse(&text).unwrap();
        assert_eq!(back.seed, case.seed);
        assert_eq!(back.db.len(), case.db.len());
        assert_eq!(back.state.total_tuples(), case.state.total_tuples());
        assert_eq!(back.ops, case.ops);
        // Idempotent: render(parse(render(c))) == render(c).
        assert_eq!(back.render(), text);
    }

    #[test]
    fn parse_rejects_garbage() {
        for (text, needle) in [
            ("seed: x\nscheme:\nuniverse: A\nscheme R: A keys A\n", "unsigned"),
            ("seed: 1\nscheme:\nuniverse: A\nscheme R: A keys A\nops:\nfly R: A=a\n", "unknown op"),
            ("seed: 1\nscheme:\nuniverse: A\nscheme R: A keys A\nops:\nbinsert R: A=a\n", "steps"),
            ("seed: 1\nscheme:\nuniverse: A\nscheme R: A keys A\n", "neither"),
            (
                "seed: 1\nscheme:\nuniverse: A\nscheme R: A keys A\nops:\nfinsert nth=1 kind=flaky R: A=a\n",
                "fault kind",
            ),
        ] {
            let err = Case::parse(text).unwrap_err();
            assert!(err.contains(needle), "{text:?} gave {err:?}");
        }
    }
}
