//! Seeded input generation. The program under test only ever sees the
//! rendered text lines (`R3: K=… A3=…`); the generator also knows what
//! each line must do (accept, reject, remove), which is what the
//! correctness checks compare the verdicts against.
//!
//! Entity `e` is a universal tuple whose value on attribute `A` is
//! `A.<id>`, with `id` a seed-keyed bijection of `e`: distinct entities
//! share no values, so fragments of fresh entities are always accepted,
//! and a line that keeps an existing fragment's key but changes the rest
//! always violates that key.

use std::fmt::Write;

use idr_relation::DatabaseScheme;
use idr_workload::generators::{block_chain_scheme, star_scheme};

/// A scheme family plus everything needed to render its lines.
pub struct Gen {
    pub db: DatabaseScheme,
    salt: u32,
    /// Per relation: its name and its attribute names, key attributes
    /// flagged.
    rels: Vec<(String, Vec<(String, bool)>)>,
}

/// Entity ids at or above this are reserved for the fresh values of
/// key-conflicting lines, so they never collide with an entity.
const CONFLICT_BASE: u64 = 1 << 31;

impl Gen {
    /// `star(16)`: one key-equivalent block of 16 relations around `K`.
    pub fn star16(seed: u64) -> Gen {
        Gen::new(star_scheme(16), seed)
    }

    /// `block_chain(4,4)`: four IR blocks of four relations, bridged.
    pub fn block_chain44(seed: u64) -> Gen {
        Gen::new(block_chain_scheme(4, 4), seed)
    }

    fn new(db: DatabaseScheme, seed: u64) -> Gen {
        let u = db.universe();
        let rels = (0..db.len())
            .map(|i| {
                let s = db.scheme(i);
                let key = s.keys()[0];
                let attrs = s
                    .attrs()
                    .iter()
                    .map(|a| (u.name(a).to_string(), key.contains(a)))
                    .collect();
                (s.name().to_string(), attrs)
            })
            .collect();
        let salt = (idr_relation::rng::SplitMix64::new(seed).next_u64() >> 32) as u32;
        Gen { db, salt, rels }
    }

    /// Relations in the scheme.
    pub fn rels(&self) -> usize {
        self.rels.len()
    }

    fn id(&self, e: u64) -> u32 {
        // Odd multiplier then xor: a bijection on u32, so distinct
        // entities get distinct ids.
        (e as u32).wrapping_mul(0x9E37_79B1) ^ self.salt
    }

    fn render(&self, line: &mut String, rel: usize, mut value_of: impl FnMut(bool) -> u64) {
        let (name, attrs) = &self.rels[rel];
        line.push_str(name);
        line.push(':');
        for (a, is_key) in attrs {
            let id = self.id(value_of(*is_key));
            write!(line, " {a}={a}.{id:x}").expect("writing to a String cannot fail");
        }
    }

    /// Entity `e`'s fragment in relation `rel`.
    pub fn fragment(&self, rel: usize, e: u64) -> String {
        let mut line = String::new();
        self.render(&mut line, rel, |_| e);
        line
    }

    /// A line with entity `e`'s key in `rel` but fresh values elsewhere:
    /// rejected whenever `e`'s fragment of `rel` is present.
    pub fn conflict(&self, rel: usize, e: u64, k: u64) -> String {
        let mut line = String::new();
        self.render(
            &mut line,
            rel,
            |is_key| if is_key { e } else { CONFLICT_BASE + k },
        );
        line
    }

    /// The first `tuples` lines of the entity-major stream: entity
    /// `k / rels` projected onto relation `k % rels`, so each entity's
    /// fragments arrive as one contiguous run the chase reassembles.
    pub fn stream(&self, tuples: usize) -> Vec<String> {
        let rels = self.rels();
        (0..tuples)
            .map(|k| {
                let mut line = String::with_capacity(64);
                line.push_str("insert ");
                self.render(&mut line, k % rels, |_| (k / rels) as u64);
                line
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_depend_on_the_seed_and_parse() {
        let a = Gen::block_chain44(1);
        let b = Gen::block_chain44(2);
        assert_ne!(a.fragment(0, 7), b.fragment(0, 7));
        assert_eq!(a.fragment(0, 7), Gen::block_chain44(1).fragment(0, 7));
        let mut sym = idr_relation::SymbolTable::new();
        for line in a.stream(40) {
            let tail = line.strip_prefix("insert ").unwrap();
            idr_relation::parse::parse_tuple_line(tail, &a.db, &mut sym).unwrap();
        }
        let c = a.conflict(3, 7, 0);
        idr_relation::parse::parse_tuple_line(&c, &a.db, &mut sym).unwrap();
    }
}
