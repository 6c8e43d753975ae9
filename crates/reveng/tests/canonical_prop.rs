//! Canonical forms over random conjunctive queries: self-joins, repeated
//! constants, head variables, 0–7 atoms.
//!
//! The oracle is a two-search reference implementation: `canonical_key`
//! searches the atom orders for the smallest rendering and `canonical_cq`
//! searches them again for the order that realizes it. Keys are stored in
//! caches and golden tables, so the single-search [`canonical_form`] must
//! reproduce the reference keys and queries byte for byte.

use proptest::prelude::*;
use provabs_relational::{Atom, Cq, RelId, Term, Value, VarId};
use provabs_reveng::{canonical_cq, canonical_form, canonical_key};
use std::collections::HashMap;

mod oracle {
    use super::*;

    pub fn encode(cq: &Cq, atom_order: &[usize]) -> String {
        let mut var_ids: HashMap<VarId, usize> = HashMap::new();
        let mut out = String::new();
        let mut push_term = |t: &Term, out: &mut String| match t {
            Term::Const(c) => {
                out.push('c');
                out.push_str(&c.to_string());
            }
            Term::Var(v) => {
                let next = var_ids.len();
                let id = *var_ids.entry(*v).or_insert(next);
                out.push('v');
                out.push_str(&id.to_string());
            }
        };
        out.push('H');
        for t in &cq.head {
            push_term(t, &mut out);
            out.push(',');
        }
        for &i in atom_order {
            let a = &cq.body[i];
            out.push('A');
            out.push_str(&a.rel.0.to_string());
            out.push('(');
            for t in &a.terms {
                push_term(t, &mut out);
                out.push(',');
            }
            out.push(')');
        }
        out
    }

    pub fn atom_invariant(cq: &Cq, atom_idx: usize) -> String {
        let mut occ: HashMap<VarId, usize> = HashMap::new();
        for a in &cq.body {
            for v in a.variables() {
                *occ.entry(v).or_insert(0) += 1;
            }
        }
        let head_vars: Vec<VarId> = cq.head.iter().filter_map(Term::as_var).collect();
        let a = &cq.body[atom_idx];
        let mut s = format!("R{}(", a.rel.0);
        for t in &a.terms {
            match t {
                Term::Const(c) => s.push_str(&format!("c{c},")),
                Term::Var(v) => {
                    let h = head_vars.iter().filter(|x| **x == *v).count();
                    s.push_str(&format!("v[o{},h{}],", occ[v], h));
                }
            }
        }
        s.push(')');
        s
    }

    fn sorted_order(cq: &Cq) -> (Vec<usize>, Vec<(usize, usize)>) {
        let n = cq.body.len();
        let mut order: Vec<usize> = (0..n).collect();
        let invariants: Vec<String> = (0..n).map(|i| atom_invariant(cq, i)).collect();
        order.sort_by(|&a, &b| invariants[a].cmp(&invariants[b]).then(a.cmp(&b)));
        let mut groups: Vec<(usize, usize)> = Vec::new();
        let mut start = 0;
        for i in 1..=n {
            if i == n || invariants[order[i]] != invariants[order[start]] {
                groups.push((start, i));
                start = i;
            }
        }
        (order, groups)
    }

    pub fn canonical_key(cq: &Cq) -> String {
        let (mut order, groups) = sorted_order(cq);
        let mut best: Option<String> = None;
        permute_groups(cq, &mut order, &groups, 0, &mut best);
        best.unwrap_or_else(|| encode(cq, &order))
    }

    fn permute_groups(
        cq: &Cq,
        order: &mut Vec<usize>,
        groups: &[(usize, usize)],
        g: usize,
        best: &mut Option<String>,
    ) {
        if g == groups.len() {
            let enc = encode(cq, order);
            if best.as_ref().is_none_or(|b| enc < *b) {
                *best = Some(enc);
            }
            return;
        }
        let (s, e) = groups[g];
        if e - s <= 1 {
            permute_groups(cq, order, groups, g + 1, best);
            return;
        }
        let mut idxs: Vec<usize> = order[s..e].to_vec();
        permute_slice(&mut idxs, 0, &mut |perm| {
            order[s..e].copy_from_slice(perm);
            permute_groups(cq, &mut order.clone(), groups, g + 1, best);
        });
    }

    fn permute_slice(v: &mut Vec<usize>, k: usize, f: &mut impl FnMut(&[usize])) {
        if k == v.len() {
            f(v);
            return;
        }
        for i in k..v.len() {
            v.swap(k, i);
            permute_slice(v, k + 1, f);
            v.swap(k, i);
        }
    }

    pub fn canonical_cq(cq: &Cq) -> Cq {
        let (mut order, groups) = sorted_order(cq);
        let mut best: Option<(String, Vec<usize>)> = None;
        search_best_order(cq, &mut order, &groups, 0, &mut best);
        let order = best.map(|(_, o)| o).unwrap_or(order);
        let mut map: HashMap<VarId, VarId> = HashMap::new();
        let mut next = 0u32;
        let mut note = |t: &Term, map: &mut HashMap<VarId, VarId>| {
            if let Term::Var(v) = t {
                map.entry(*v).or_insert_with(|| {
                    let id = VarId(next);
                    next += 1;
                    id
                });
            }
        };
        for t in &cq.head {
            note(t, &mut map);
        }
        for &i in &order {
            for t in &cq.body[i].terms {
                note(t, &mut map);
            }
        }
        let reordered = Cq {
            head_name: cq.head_name.clone(),
            head: cq.head.clone(),
            body: order.iter().map(|&i| cq.body[i].clone()).collect(),
        };
        reordered.rename_vars(&map)
    }

    fn search_best_order(
        cq: &Cq,
        order: &mut Vec<usize>,
        groups: &[(usize, usize)],
        g: usize,
        best: &mut Option<(String, Vec<usize>)>,
    ) {
        if g == groups.len() {
            let enc = encode(cq, order);
            if best.as_ref().is_none_or(|(b, _)| enc < *b) {
                *best = Some((enc, order.clone()));
            }
            return;
        }
        let (s, e) = groups[g];
        if e - s <= 1 {
            search_best_order(cq, order, groups, g + 1, best);
            return;
        }
        let mut idxs: Vec<usize> = order[s..e].to_vec();
        permute_slice(&mut idxs, 0, &mut |perm| {
            let mut o2 = order.clone();
            o2[s..e].copy_from_slice(perm);
            search_best_order(cq, &mut o2, groups, g + 1, best);
        });
    }
}

/// Term codes `0..6` are variables, `6..9` a small constant pool, so
/// constants repeat and variables are shared across atoms.
fn term(code: u32) -> Term {
    match code {
        0..=5 => Term::Var(VarId(code)),
        6 => Term::Const(Value::int(1)),
        7 => Term::Const(Value::int(2)),
        _ => Term::Const(Value::str("a")),
    }
}

/// A random CQ over three relations of arities 1, 2 and 3: 0–7 atoms
/// (self-joins whenever a relation repeats) and a 0–3 term head.
fn arb_cq() -> impl Strategy<Value = Cq> {
    (
        prop::collection::vec((0u16..3, prop::collection::vec(0u32..9, 3)), 0..8),
        prop::collection::vec(0u32..9, 0..4),
    )
        .prop_map(|(atoms, head)| {
            let body = atoms
                .into_iter()
                .map(|(rel, codes)| Atom {
                    rel: RelId(rel),
                    terms: codes[..=rel as usize].iter().map(|&c| term(c)).collect(),
                })
                .collect();
            Cq::new(head.into_iter().map(term).collect(), body)
        })
}

/// A deterministic shuffle of `v` driven by `seed` (SplitMix64 steps).
fn shuffle<T>(v: &mut [T], mut seed: u64) {
    for i in (1..v.len()).rev() {
        seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        v.swap(i, (z % (i as u64 + 1)) as usize);
    }
}

/// `cq` with its atoms permuted and its variables renamed injectively.
fn isomorphic_copy(cq: &Cq, seed: u64) -> Cq {
    let mut body = cq.body.clone();
    shuffle(&mut body, seed);
    let mut targets: Vec<u32> = (100..106).collect();
    shuffle(&mut targets, seed ^ 0x5eed);
    let map: HashMap<VarId, VarId> = (0..6)
        .map(|v| (VarId(v), VarId(targets[v as usize])))
        .collect();
    Cq {
        head_name: cq.head_name.clone(),
        head: cq.head.clone(),
        body,
    }
    .rename_vars(&map)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn canonical_form_is_key_and_query_in_one(q in arb_cq()) {
        let (key, canon) = canonical_form(&q);
        prop_assert_eq!(&key, &canonical_key(&q));
        prop_assert_eq!(&canon, &canonical_cq(&q));
        // The canonical query is isomorphic to the input.
        prop_assert_eq!(&canonical_key(&canon), &key);
    }

    #[test]
    fn canonical_form_matches_the_two_search_oracle(q in arb_cq()) {
        let (key, canon) = canonical_form(&q);
        prop_assert_eq!(key, oracle::canonical_key(&q), "query {:?}", q);
        prop_assert_eq!(canon, oracle::canonical_cq(&q), "query {:?}", q);
    }

    #[test]
    fn key_is_invariant_under_isomorphism(q in arb_cq(), seed in 0u64..u64::MAX) {
        let copy = isomorphic_copy(&q, seed);
        prop_assert_eq!(canonical_key(&copy), canonical_key(&q), "query {:?}", q);
        prop_assert_eq!(canonical_cq(&copy), canonical_cq(&q), "query {:?}", q);
    }
}
