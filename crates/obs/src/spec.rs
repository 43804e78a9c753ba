//! Shared grammar for fault spec strings.
//!
//! Every fault plane in the workspace — job/process faults
//! (`snowboard::FaultPlan`) and network faults (`snowboard::NetFaultPlan`)
//! — is a set of clauses of the unified chaos plan, in one compact spec
//! language:
//!
//! ```text
//! spec   := clause (';' clause)*        -- empty clauses are skipped
//! clause := kind '=' items              -- e.g. "drop=0:6" or "panic=1,2"
//! items  := item (',' item)*
//! item   := NUM | NUM ':' NUM           -- scalar or pair
//! ```
//!
//! Historically each plane hand-rolled this split/trim/parse dance with
//! slightly different error strings. This module is the single
//! implementation: planes describe *what* each kind means, the grammar and
//! its error messages live here, and every plane reports malformed input
//! identically (`"<plane> clause '...' is not kind=args"`, `"unknown
//! <plane> kind '...'"`, `"bad <what> '...' in <plane> clause '...'"`).

/// One `kind=args` clause split out of a spec string.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Clause<'a> {
    /// The fault kind (the part before `=`), trimmed.
    pub kind: &'a str,
    /// The raw argument string (the part after `=`).
    pub args: &'a str,
    /// The whole clause text, for error messages.
    pub text: &'a str,
}

impl<'a> Clause<'a> {
    /// The comma-separated items of this clause, trimmed.
    pub fn items(&self) -> impl Iterator<Item = &'a str> + '_ {
        self.args.split(',').map(str::trim)
    }

    /// Rejects this clause's kind with the standard unknown-kind error.
    pub fn unknown_kind(&self, plane: &str) -> String {
        format!("unknown {plane} kind '{}'", self.kind)
    }

    /// Splits `item` into an `a:b` pair, or errors with the standard
    /// not-a-pair message (`label` names the expected shape, e.g.
    /// `"job:value"`).
    pub fn pair(&self, item: &'a str, label: &str) -> Result<(&'a str, &'a str), String> {
        item.split_once(':')
            .map(|(a, b)| (a.trim(), b.trim()))
            .ok_or_else(|| format!("'{item}' in '{}' is not {label}", self.text))
    }

    /// Parses `s` as a number, or errors with the standard bad-number
    /// message (`what` names the field, e.g. `"job index"`; `plane` names
    /// the grammar, e.g. `"fault"`).
    pub fn num<T: std::str::FromStr>(&self, s: &str, what: &str, plane: &str) -> Result<T, String> {
        s.trim()
            .parse()
            .map_err(|_| format!("bad {what} '{s}' in {plane} clause '{}'", self.text))
    }
}

/// Splits a spec into clauses, skipping empty ones. `plane` names the
/// grammar in error messages (`"fault"`, `"net fault"`, `"chaos"`). An empty spec yields no clauses (the inert plan).
pub fn clauses<'a>(
    spec: &'a str,
    plane: &'a str,
) -> impl Iterator<Item = Result<Clause<'a>, String>> + 'a {
    spec.split(';')
        .map(str::trim)
        .filter(|c| !c.is_empty())
        .map(move |text| {
            let (kind, args) = text
                .split_once('=')
                .ok_or_else(|| format!("{plane} clause '{text}' is not kind=args"))?;
            Ok(Clause {
                kind: kind.trim(),
                args,
                text,
            })
        })
}

/// Joins non-empty `kind=args` clauses back into a spec string — the
/// shared `to_spec` tail. Skips clauses with empty args so plans render
/// minimally and round-trip exactly.
pub fn join_clauses(parts: &[(&str, String)]) -> String {
    let mut clauses = Vec::new();
    for (kind, args) in parts {
        if !args.is_empty() {
            clauses.push(format!("{kind}={args}"));
        }
    }
    clauses.join(";")
}

/// Renders an iterator of displayable items as a comma list (the shared
/// item-rendering tail of `to_spec`).
pub fn join_items<I: IntoIterator<Item = S>, S: std::fmt::Display>(items: I) -> String {
    items
        .into_iter()
        .map(|i| i.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clauses_split_trim_and_skip_empties() {
        let got: Vec<Clause> = clauses("a=1; b=2:3 ;;  ; c=4,5", "fault")
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].kind, "a");
        assert_eq!(got[0].args, "1");
        assert_eq!(got[1].kind, "b");
        assert_eq!(got[1].text, "b=2:3");
        assert_eq!(got[2].items().collect::<Vec<_>>(), vec!["4", "5"]);
        assert_eq!(clauses("", "fault").count(), 0);
        assert_eq!(clauses("  ; ;", "fault").count(), 0);
    }

    #[test]
    fn error_messages_are_uniform_across_planes() {
        let err = clauses("frob", "net fault").next().unwrap().unwrap_err();
        assert_eq!(err, "net fault clause 'frob' is not kind=args");

        let c = clauses("drop=1", "net fault").next().unwrap().unwrap();
        assert_eq!(
            c.pair("1", "conn:value").unwrap_err(),
            "'1' in 'drop=1' is not conn:value"
        );
        assert_eq!(
            c.num::<u64>("x", "value", "net fault").unwrap_err(),
            "bad value 'x' in net fault clause 'drop=1'"
        );
        assert_eq!(c.unknown_kind("net fault"), "unknown net fault kind 'drop'");
    }

    #[test]
    fn pair_and_num_trim_whitespace() {
        let c = clauses("exit = 3 : 9 ", "fault").next().unwrap().unwrap();
        assert_eq!(c.kind, "exit");
        let (a, b) = c.pair(c.args.trim(), "job:code").unwrap();
        assert_eq!(c.num::<usize>(a, "job index", "fault").unwrap(), 3);
        assert_eq!(c.num::<i32>(b, "exit code", "fault").unwrap(), 9);
    }

    #[test]
    fn join_helpers_render_minimal_specs() {
        assert_eq!(
            join_clauses(&[
                ("panic", join_items([1, 2])),
                ("hang", String::new()),
                ("close", "5".to_string()),
            ]),
            "panic=1,2;close=5"
        );
        assert_eq!(join_clauses(&[]), "");
        assert_eq!(join_items(Vec::<u64>::new()), "");
    }
}
