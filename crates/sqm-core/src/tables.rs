//! Plain-text (de)serialization of the symbolic tables.
//!
//! The compiled artifacts must cross a tool boundary — in the paper they
//! travel from the Matlab pre-computation into the BIP/Think build. We use
//! a deliberately simple line-oriented text format (no external
//! dependencies, diff-able, easy to load from C):
//!
//! ```text
//! SQM-REGIONS v1
//! format=1
//! states=3 qualities=2
//! 120 80
//! 100 70
//! 90 60
//! ```
//!
//! and for relaxation tables one `L`/`U` pair of lines per state, each with
//! `|Q|·|ρ|` entries. Infinite bounds are spelled `inf` / `-inf`.
//!
//! The `format=` line carries the same version number as the binary
//! artifact header ([`crate::artifact::FORMAT_VERSION`]) — one version
//! story for both forms. Parsers accept files without the line (pre-format
//! emitters) but reject a mismatching version with
//! [`ParseError::UnsupportedVersion`].

use crate::error::ParseError;
use crate::quality::QualitySet;
use crate::regions::QualityRegionTable;
use crate::relaxation::{RelaxationTable, StepSet};
use crate::time::Time;
use std::fmt::Write as _;

fn write_time(out: &mut String, t: Time) {
    match t {
        Time::INF => out.push_str("inf"),
        Time::NEG_INF => out.push_str("-inf"),
        t => {
            let _ = write!(out, "{}", t.as_ns());
        }
    }
}

/// Parse one time token without the `str::parse` error machinery: a manual
/// byte loop (sign, digits, checked accumulation) whose only allocation is
/// the error message on the cold failure path. `i64::MIN`/`i64::MAX`
/// round-trip to the infinity sentinels bit-exactly, matching
/// [`write_time`].
fn parse_time_bytes(token: &[u8]) -> Option<Time> {
    match token {
        b"inf" => return Some(Time::INF),
        b"-inf" => return Some(Time::NEG_INF),
        _ => {}
    }
    let (negative, digits) = match token.split_first()? {
        (b'-', rest) => (true, rest),
        (b'+', rest) => (false, rest),
        _ => (false, token),
    };
    if digits.is_empty() {
        return None;
    }
    // Accumulate negatively so `i64::MIN` parses without overflow.
    let mut acc = 0i64;
    for &b in digits {
        if !b.is_ascii_digit() {
            return None;
        }
        acc = acc.checked_mul(10)?.checked_sub((b - b'0') as i64)?;
    }
    let ns = if negative { acc } else { acc.checked_neg()? };
    Some(Time::from_ns(ns))
}

#[cold]
fn bad_time(token: &[u8], line_no: usize) -> ParseError {
    ParseError::BadLine {
        line_no,
        message: format!("bad time {:?}", String::from_utf8_lossy(token)),
    }
}

/// Single-pass whitespace-token scanner over the payload bytes, tracking
/// the 1-based line number for error reporting. Replaces the
/// `lines()` → `split_whitespace()` → `str::parse` pipeline: one traversal,
/// no intermediate iterators, no per-token closure construction.
struct Scanner<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: usize,
}

impl<'a> Scanner<'a> {
    fn new(bytes: &'a [u8], first_line: usize) -> Scanner<'a> {
        Scanner {
            bytes,
            pos: 0,
            line: first_line,
        }
    }

    /// The next whitespace-delimited token and the line it starts on.
    fn next_token(&mut self) -> Option<(&'a [u8], usize)> {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b'\n' {
                self.line += 1;
                self.pos += 1;
            } else if b.is_ascii_whitespace() {
                self.pos += 1;
            } else {
                break;
            }
        }
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| !b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
        (self.pos > start).then(|| (&self.bytes[start..self.pos], self.line))
    }
}

/// Split off the first line (without its terminator), tolerating a `\r\n`
/// ending like `str::lines` does.
fn split_line(s: &str) -> Option<(&str, &str)> {
    if s.is_empty() {
        return None;
    }
    match s.find('\n') {
        Some(i) => Some((s[..i].trim_end_matches('\r'), &s[i + 1..])),
        None => Some((s.trim_end_matches('\r'), "")),
    }
}

fn parse_kv(token: &str, key: &str, header: &str) -> Result<usize, ParseError> {
    token
        .strip_prefix(key)
        .and_then(|rest| rest.strip_prefix('='))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| ParseError::BadHeader(header.to_string()))
}

/// Split off the optional `format=N` header line. Absent is accepted
/// (older emitters); present-but-mismatching is
/// [`ParseError::UnsupportedVersion`]. Returns the remaining input and
/// how many header lines were consumed so far (for line-number tracking).
fn take_format_line(rest: &str) -> Result<(&str, usize), ParseError> {
    if let Some((line, tail)) = split_line(rest) {
        if let Some(v) = line.trim().strip_prefix("format=") {
            let got: u32 = v
                .parse()
                .map_err(|_| ParseError::BadHeader(line.to_string()))?;
            if got != crate::artifact::FORMAT_VERSION {
                return Err(ParseError::UnsupportedVersion { got });
            }
            return Ok((tail, 1));
        }
    }
    Ok((rest, 0))
}

/// Serialize a quality region table.
pub fn regions_to_string(t: &QualityRegionTable) -> String {
    let nq = t.qualities().len();
    let mut out = String::new();
    out.push_str("SQM-REGIONS v1\n");
    let _ = writeln!(out, "format={}", crate::artifact::FORMAT_VERSION);
    let _ = writeln!(out, "states={} qualities={}", t.n_states(), nq);
    for state in 0..t.n_states() {
        let row = t.row(state);
        for (i, &v) in row.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            write_time(&mut out, v);
        }
        out.push('\n');
    }
    out
}

/// Parse a quality region table — a single pass over the payload bytes;
/// the only allocations are the result vector and cold error messages.
pub fn regions_from_str(s: &str) -> Result<QualityRegionTable, ParseError> {
    let (magic, rest) = split_line(s).ok_or_else(|| ParseError::BadHeader("empty input".into()))?;
    if magic.trim() != "SQM-REGIONS v1" {
        return Err(ParseError::BadHeader(magic.to_string()));
    }
    let (rest, format_lines) = take_format_line(rest)?;
    let (meta, payload) =
        split_line(rest).ok_or_else(|| ParseError::BadHeader("missing meta".into()))?;
    let mut parts = meta.split_whitespace();
    let states = parse_kv(parts.next().unwrap_or(""), "states", meta)?;
    let nq = parse_kv(parts.next().unwrap_or(""), "qualities", meta)?;
    let qualities = QualitySet::new(nq)
        .ok_or_else(|| ParseError::Inconsistent(format!("bad quality count {nq}")))?;
    let mut td = Vec::with_capacity(states * nq);
    let mut scanner = Scanner::new(payload.as_bytes(), 3 + format_lines);
    while let Some((token, line_no)) = scanner.next_token() {
        td.push(parse_time_bytes(token).ok_or_else(|| bad_time(token, line_no))?);
    }
    if td.len() != states * nq {
        return Err(ParseError::TruncatedPayload {
            expected: states * nq,
            got: td.len(),
        });
    }
    let table = QualityRegionTable::from_raw(states, qualities, td)
        .ok_or_else(|| ParseError::Inconsistent("shape mismatch".into()))?;
    // Every manager resumes its probe from the previous decision, which is
    // exact only on rows non-increasing in quality (Proposition 2).
    if !table.rows_monotone() {
        return Err(ParseError::Inconsistent(
            "region row increases with quality".into(),
        ));
    }
    Ok(table)
}

/// Serialize a relaxation table.
pub fn relaxation_to_string(t: &RelaxationTable) -> String {
    let nq = t.qualities().len();
    let mut out = String::new();
    out.push_str("SQM-RELAX v1\n");
    let _ = writeln!(out, "format={}", crate::artifact::FORMAT_VERSION);
    let _ = write!(out, "states={} qualities={} rho=", t.n_states(), nq);
    for (i, &r) in t.rho().steps().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{r}");
    }
    out.push('\n');
    for state in 0..t.n_states() {
        for (tag, data) in [("L", t.lower_row(state)), ("U", t.upper_row(state))] {
            out.push_str(tag);
            for &v in data {
                out.push(' ');
                write_time(&mut out, v);
            }
            out.push('\n');
        }
    }
    out
}

/// Parse a relaxation table — line-framed (the `L`/`U` tags are
/// positional) but with the same single-pass token scanning and cold-path
/// error allocation as [`regions_from_str`].
pub fn relaxation_from_str(s: &str) -> Result<RelaxationTable, ParseError> {
    let (magic, rest) = split_line(s).ok_or_else(|| ParseError::BadHeader("empty input".into()))?;
    if magic.trim() != "SQM-RELAX v1" {
        return Err(ParseError::BadHeader(magic.to_string()));
    }
    let (rest, format_lines) = take_format_line(rest)?;
    let (meta, mut payload) =
        split_line(rest).ok_or_else(|| ParseError::BadHeader("missing meta".into()))?;
    let mut parts = meta.split_whitespace();
    let states = parse_kv(parts.next().unwrap_or(""), "states", meta)?;
    let nq = parse_kv(parts.next().unwrap_or(""), "qualities", meta)?;
    let rho_part = parts
        .next()
        .and_then(|p| p.strip_prefix("rho="))
        .ok_or_else(|| ParseError::BadHeader(meta.to_string()))?;
    let steps: Vec<usize> = rho_part
        .split(',')
        .map(|v| v.parse::<usize>())
        .collect::<Result<_, _>>()
        .map_err(|e| ParseError::BadHeader(format!("bad rho: {e}")))?;
    let rho =
        StepSet::new(steps).map_err(|e| ParseError::Inconsistent(format!("bad step set: {e}")))?;
    let qualities = QualitySet::new(nq)
        .ok_or_else(|| ParseError::Inconsistent(format!("bad quality count {nq}")))?;
    let expected = states * nq * rho.len();
    let mut lower = Vec::with_capacity(expected);
    let mut upper = Vec::with_capacity(expected);
    let mut line_no = 2 + format_lines;
    while let Some((line, remainder)) = split_line(payload) {
        payload = remainder;
        line_no += 1;
        let line = line.trim().as_bytes();
        let Some((&tag, tail)) = line.split_first() else {
            continue; // blank line
        };
        let dest = match tag {
            b'L' => &mut lower,
            b'U' => &mut upper,
            other => {
                return Err(ParseError::BadLine {
                    line_no,
                    message: format!("expected L or U, got {:?}", char::from(other)),
                })
            }
        };
        let mut scanner = Scanner::new(tail, line_no);
        while let Some((token, _)) = scanner.next_token() {
            dest.push(parse_time_bytes(token).ok_or_else(|| bad_time(token, line_no))?);
        }
    }
    if lower.len() != expected || upper.len() != expected {
        return Err(ParseError::TruncatedPayload {
            expected: 2 * expected,
            got: lower.len() + upper.len(),
        });
    }
    let table = RelaxationTable::from_raw(states, qualities, rho, lower, upper)
        .ok_or_else(|| ParseError::Inconsistent("shape mismatch".into()))?;
    // The relaxed manager's step walk is exact only on intervals nested
    // over ρ (Proposition 3).
    if !table.nested_over_rho() {
        return Err(ParseError::Inconsistent(
            "relaxation intervals not nested over rho".into(),
        ));
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::{compile_all, compile_regions};
    use crate::system::{ParameterizedSystem, SystemBuilder};

    fn sys() -> ParameterizedSystem {
        SystemBuilder::new(3)
            .action("a", &[10, 25, 40], &[4, 9, 14])
            .action("b", &[12, 22, 35], &[6, 11, 17])
            .action("c", &[8, 18, 28], &[3, 8, 12])
            .deadline_last(Time::from_ns(110))
            .build()
            .unwrap()
    }

    #[test]
    fn regions_roundtrip() {
        let t = compile_regions(&sys());
        let text = regions_to_string(&t);
        let back = regions_from_str(&text).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn relaxation_roundtrip() {
        let s = sys();
        let c = compile_all(&s, Some(StepSet::new(vec![1, 2]).unwrap()));
        let t = c.relaxation.unwrap();
        let text = relaxation_to_string(&t);
        let back = relaxation_from_str(&text).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn infinite_bounds_survive_roundtrip() {
        let s = sys();
        let c = compile_all(&s, Some(StepSet::new(vec![1, 2, 3]).unwrap()));
        let t = c.relaxation.unwrap();
        // The qmax lower bounds are −∞ and overrunning windows are +∞/−∞.
        let text = relaxation_to_string(&t);
        assert!(text.contains("-inf"));
        assert!(text.contains(" inf"));
        assert_eq!(relaxation_from_str(&text).unwrap(), t);
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        assert!(matches!(
            regions_from_str(""),
            Err(ParseError::BadHeader(_))
        ));
        assert!(matches!(
            regions_from_str("WRONG v9\nstates=1 qualities=1\n5\n"),
            Err(ParseError::BadHeader(_))
        ));
        assert!(matches!(
            regions_from_str("SQM-REGIONS v1\nstates=2 qualities=2\n1 2\n"),
            Err(ParseError::TruncatedPayload {
                expected: 4,
                got: 2
            })
        ));
        assert!(matches!(
            regions_from_str("SQM-REGIONS v1\nstates=1 qualities=1\nxyz\n"),
            Err(ParseError::BadLine { .. })
        ));
        assert!(matches!(
            relaxation_from_str("SQM-RELAX v1\nstates=1 qualities=1 rho=1\nZ 0\n"),
            Err(ParseError::BadLine { .. })
        ));
        assert!(matches!(
            relaxation_from_str("SQM-RELAX v1\nstates=1 qualities=1 rho=2,1\n"),
            Err(ParseError::Inconsistent(_))
        ));
    }

    /// A well-formed file whose rows break the Proposition 2/3 structure
    /// the managers' hint walks rely on is rejected, not loaded.
    #[test]
    fn rejects_tables_the_hint_walk_cannot_search() {
        let s = sys();
        let rising = QualityRegionTable::from_raw(
            1,
            s.qualities(),
            vec![Time::from_ns(5), Time::from_ns(9), Time::from_ns(1)],
        )
        .unwrap();
        assert!(matches!(
            regions_from_str(&regions_to_string(&rising)),
            Err(ParseError::Inconsistent(_))
        ));

        let c = compile_all(&s, Some(StepSet::new(vec![1, 2]).unwrap()));
        let relax = c.relaxation.unwrap();
        let (lower, upper) = relax.raw();
        let mut lower = lower.to_vec();
        // Interval r = 2 of (state 0, qmin) starts before interval r = 1.
        lower[1] = lower[0] - Time::from_ns(1);
        let unnested =
            RelaxationTable::from_raw(3, s.qualities(), relax.rho().clone(), lower, upper.to_vec())
                .unwrap();
        assert!(!unnested.nested_over_rho());
        assert!(matches!(
            relaxation_from_str(&relaxation_to_string(&unnested)),
            Err(ParseError::Inconsistent(_))
        ));
    }

    #[test]
    fn scanner_accepts_signs_extremes_and_loose_layout() {
        // Tokens may be distributed across lines arbitrarily; '+' signs and
        // the i64 extremes (which alias the infinity sentinels) parse.
        let t = regions_from_str(
            "SQM-REGIONS v1\nstates=2 qualities=2\n  +5\n\n-9223372036854775808 \
             9223372036854775807\n-7\n",
        )
        .unwrap();
        assert_eq!(
            t.raw(),
            &[
                Time::from_ns(5),
                Time::NEG_INF,
                Time::INF,
                Time::from_ns(-7)
            ]
        );
        // Overflow, empty sign, and junk all fail on the token's line.
        for bad in ["99999999999999999999", "-", "+", "12x"] {
            assert!(matches!(
                regions_from_str(&format!("SQM-REGIONS v1\nstates=1 qualities=1\n{bad}\n")),
                Err(ParseError::BadLine { line_no: 3, .. })
            ));
        }
    }

    #[test]
    fn format_is_line_oriented_and_stable() {
        let t = compile_regions(&sys());
        let text = regions_to_string(&t);
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("SQM-REGIONS v1"));
        assert_eq!(lines.next(), Some("format=1"));
        assert_eq!(lines.next(), Some("states=3 qualities=3"));
        assert_eq!(text.lines().count(), 3 + 3);
    }

    #[test]
    fn format_line_is_optional_but_checked() {
        // Pre-PR-8 files carry no `format=` line; they still parse.
        let legacy = "SQM-REGIONS v1\nstates=1 qualities=2\n2 1\n";
        let t = regions_from_str(legacy).unwrap();
        assert_eq!(t.raw(), &[Time::from_ns(2), Time::from_ns(1)]);

        // A present-but-future version is a typed rejection, not a
        // misparse of the payload.
        let future = "SQM-REGIONS v1\nformat=99\nstates=1 qualities=2\n1 2\n";
        assert_eq!(
            regions_from_str(future),
            Err(ParseError::UnsupportedVersion { got: 99 })
        );
        // Garbage after `format=` is a header error.
        assert!(matches!(
            regions_from_str("SQM-REGIONS v1\nformat=banana\nstates=1 qualities=1\n1\n"),
            Err(ParseError::BadHeader(_))
        ));

        // Same story on the relaxation side.
        let c = compile_all(&sys(), Some(StepSet::new(vec![1, 2]).unwrap()));
        let relax = c.relaxation.unwrap();
        let text = relaxation_to_string(&relax);
        assert!(text.lines().nth(1) == Some("format=1"));
        let legacy: String = text
            .lines()
            .filter(|l| !l.starts_with("format="))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(relaxation_from_str(&legacy).unwrap(), relax);
        let future = text.replace("format=1", "format=7");
        assert_eq!(
            relaxation_from_str(&future),
            Err(ParseError::UnsupportedVersion { got: 7 })
        );
    }
}
