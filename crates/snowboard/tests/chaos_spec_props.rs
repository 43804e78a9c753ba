//! Arbitrary-input suite for the fault-spec grammar: [`ChaosPlan::parse_spec`]
//! and, through it, `sb_obs::spec`, [`snowboard::FaultPlan`],
//! [`snowboard::NetFaultPlan`] and [`snowboard::DiskFaults`]. Every string
//! must give an `Err` with a message, or a plan whose `to_spec()` parses
//! back to an equal plan; no input may panic.

use std::collections::BTreeSet;

use proptest::prelude::*;
use proptest::sample::Index;

use snowboard::{ChaosPlan, ScheduleGen};

/// Every `plane:kind` the grammar knows, with the shape of its arguments.
const CLAUSES: &[(&str, Shape)] = &[
    ("job:panic", Shape::List),
    ("job:hang", Shape::List),
    ("job:transient", Shape::Pairs),
    ("proc:abort", Shape::List),
    ("proc:exit", Shape::Pairs),
    ("proc:stall", Shape::List),
    ("net:drop", Shape::Pairs),
    ("net:delay", Shape::Pairs),
    ("net:garble", Shape::Pairs),
    ("net:halfclose", Shape::Pairs),
    ("disk:torn", Shape::One),
    ("disk:flip", Shape::Pair),
    ("disk:short", Shape::List),
    ("disk:shortn", Shape::One),
    ("coord:kill-after-journal", Shape::One),
];

/// What follows a clause's `=`.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// `N,N,...`
    List,
    /// `N:N,N:N,...`
    Pairs,
    /// `N`
    One,
    /// `N:N`
    Pair,
}

/// Numbers at the edges of the fields' types (`u8` masks, `u32` attempt
/// counts, `i32` exit codes, `usize`/`u64` indexes) and a few small ones.
const NUMBERS: &[&str] = &[
    "0",
    "1",
    "2",
    "3",
    "7",
    "42",
    "-1",
    "+5",
    "00",
    "255",
    "256",
    "2147483647",
    "2147483648",
    "-2147483648",
    "-2147483649",
    "4294967295",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
];

/// The grammar's words and characters, and some that are not its own.
const WORDS: &[&str] = &[
    "job",
    "proc",
    "net",
    "disk",
    "coord",
    "panic",
    "hang",
    "transient",
    "close",
    "abort",
    "exit",
    "stall",
    "drop",
    "delay",
    "garble",
    "halfclose",
    "torn",
    "flip",
    "short",
    "shortn",
    "kill-after-journal",
    "=",
    ";",
    ",",
    ":",
    " ",
    "\t",
    "\n",
    "-",
    "+",
    ".",
    "x",
    "é",
    "\u{0}",
    "\u{FEFF}",
    "",
];

/// Characters a single-character substitution writes.
const SUBSTITUTES: &[char] = &[
    '0', '1', '5', '9', ':', ';', ',', '=', '-', '+', ' ', '.', 'x', 'é', '\u{0}',
];

fn pick(words: &'static [&'static str]) -> impl Strategy<Value = &'static str> {
    any::<Index>().prop_map(move |i| words[i.index(words.len())])
}

/// A number: mostly a small one, now and then one of [`NUMBERS`].
fn number() -> impl Strategy<Value = String> {
    prop_oneof![
        8 => (0u64..=40).prop_map(|n| n.to_string()),
        1 => pick(NUMBERS).prop_map(String::from),
    ]
}

/// One `key=args` clause, in its own shape seven times in eight.
fn clause() -> impl Strategy<Value = String> {
    let numbers = prop::collection::vec(number(), 8..9);
    (any::<Index>(), 0u8..8, 1usize..4, numbers).prop_map(|(key, shape, count, n)| {
        let (key, own) = CLAUSES[key.index(CLAUSES.len())];
        let shape = match shape {
            0 => [Shape::List, Shape::Pairs, Shape::One, Shape::Pair][count],
            _ => own,
        };
        let args = match shape {
            Shape::List => n[..count].join(","),
            Shape::Pairs => (0..count)
                .map(|i| format!("{}:{}", n[2 * i], n[2 * i + 1]))
                .collect::<Vec<_>>()
                .join(","),
            Shape::One => n[0].clone(),
            Shape::Pair => format!("{}:{}", n[0], n[1]),
        };
        format!("{key}={args}")
    })
}

/// A spec shaped like the grammar: clauses joined by `;`, with a stray
/// word spliced in at some position one time in four.
fn clause_spec() -> impl Strategy<Value = String> {
    let splice = (0u8..4, any::<Index>(), pick(WORDS));
    (prop::collection::vec(clause(), 0..5), splice).prop_map(|(clauses, (splice, at, word))| {
        let mut spec = clauses.join(";");
        if splice == 0 {
            let bounds: Vec<usize> = (0..=spec.len())
                .filter(|&i| spec.is_char_boundary(i))
                .collect();
            spec.insert_str(bounds[at.index(bounds.len())], word);
        }
        spec
    })
}

/// Words, keys and numbers in any order.
fn soup() -> impl Strategy<Value = String> {
    let token = prop_oneof![3 => pick(WORDS), 1 => any::<Index>().prop_map(|i| CLAUSES[i.index(CLAUSES.len())].0), 2 => pick(NUMBERS)];
    prop::collection::vec(token, 0..24).prop_map(|tokens| tokens.concat())
}

/// `Err` with a message, or a plan that survives `to_spec` and back.
fn check(spec: &str) -> Result<(), String> {
    match ChaosPlan::parse_spec(spec) {
        Err(e) if e.is_empty() => Err(format!("{spec:?}: an empty error message")),
        Err(_) => Ok(()),
        Ok(plan) => {
            let rendered = plan.to_spec();
            match ChaosPlan::parse_spec(&rendered) {
                Ok(again) if again == plan => Ok(()),
                other => Err(format!(
                    "{spec:?} parsed to {plan:?}, rendered {rendered:?}, which parsed to {other:?}"
                )),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]

    /// Strings over the grammar's words and characters, shaped like specs
    /// or not.
    #[test]
    fn any_string_is_refused_or_round_trips(spec in prop_oneof![2 => clause_spec(), 1 => soup()]) {
        check(&spec).map_err(proptest::test_runner::TestCaseError)?;
    }
}

/// The specs the chaos harness runs: the first 25 schedules of seeds 0–24.
fn emitted_specs() -> BTreeSet<String> {
    let mut specs = BTreeSet::new();
    for seed in 0..25 {
        let mut schedules = ScheduleGen::new(seed, 16);
        for _ in 0..25 {
            specs.insert(schedules.next_schedule().plan.to_spec());
        }
    }
    specs
}

#[test]
fn every_one_character_edit_of_an_emitted_spec_is_refused_or_round_trips() {
    let specs = emitted_specs();
    assert!(specs.len() > 100, "{} distinct specs", specs.len());
    let mut failures = Vec::new();
    let mut edits = 0;
    for spec in &specs {
        check(spec).expect("an emitted spec parses and round-trips");
        let chars: Vec<char> = spec.chars().collect();
        let mut try_edit = |edited: Vec<char>| {
            edits += 1;
            if let Err(e) = check(&edited.into_iter().collect::<String>()) {
                failures.push(e);
            }
        };
        for i in 0..chars.len() {
            let mut deleted = chars.clone();
            deleted.remove(i);
            try_edit(deleted);
            let mut duplicated = chars.clone();
            duplicated.insert(i, chars[i]);
            try_edit(duplicated);
            for &c in SUBSTITUTES.iter().filter(|&&c| c != chars[i]) {
                let mut substituted = chars.clone();
                substituted[i] = c;
                try_edit(substituted);
            }
        }
    }
    assert!(edits > 10_000, "{edits} edits");
    assert!(
        failures.is_empty(),
        "{} of {edits} edits: {:#?}",
        failures.len(),
        &failures[..failures.len().min(5)]
    );
}
