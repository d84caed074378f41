//! Report formatting: plain-text tables and paper-vs-measured comparisons.

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::time::Duration;

/// One paper-vs-measured comparison row, as `run_experiments` and
/// `bench_gate` print and record it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PaperComparison {
    /// What is being compared ("Q9 SSD-only/HDD-only speedup", …).
    pub metric: String,
    /// The value the paper reports.
    pub paper: f64,
    /// The value this reproduction measures.
    pub measured: f64,
}

impl PaperComparison {
    /// Creates a comparison row.
    pub fn new(metric: impl Into<String>, paper: f64, measured: f64) -> Self {
        PaperComparison {
            metric: metric.into(),
            paper,
            measured,
        }
    }

    /// Whether paper and measured values agree in *direction* relative to
    /// 1.0 (both are speedups > 1, both are slowdowns < 1, or both ≈ 1).
    pub fn same_direction(&self) -> bool {
        let side = |v: f64| {
            if v > 1.05 {
                1
            } else if v < 0.95 {
                -1
            } else {
                0
            }
        };
        side(self.paper) == side(self.measured) || side(self.measured) == 0 || side(self.paper) == 0
    }
}

/// Serializes comparison rows as a JSON array — the format of
/// `BENCH_report.json` / `BENCH_baseline.json` used by the CI performance
/// gate. The vendored serde stand-in has no serializer, so the flat row
/// schema (`metric`, `paper`, `measured`) is written by hand; swapping in
/// the real `serde_json` would make this a one-liner over the existing
/// derives.
pub fn comparisons_to_json(rows: &[PaperComparison]) -> String {
    let mut out = String::from("[\n");
    for (i, row) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "  {{\"metric\": {}, \"paper\": {}, \"measured\": {}}}",
            json_string(&row.metric),
            json_number(row.paper),
            json_number(row.measured)
        );
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    out
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        // JSON has no NaN/inf; null round-trips to NaN.
        "null".to_string()
    }
}

/// Parses comparison rows written by [`comparisons_to_json`] (tolerating
/// arbitrary whitespace, key order and unknown numeric precision).
pub fn comparisons_from_json(text: &str) -> Result<Vec<PaperComparison>, String> {
    let mut p = JsonParser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    p.expect(b'[')?;
    let mut rows = Vec::new();
    p.skip_ws();
    if !p.eat(b']') {
        loop {
            rows.push(p.row()?);
            p.skip_ws();
            if p.eat(b',') {
                continue;
            }
            p.expect(b']')?;
            break;
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(rows)
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.bytes.get(self.pos) == Some(&c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", char::from(c), self.pos))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos).copied() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .bytes
                        .get(self.pos)
                        .copied()
                        .ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            self.pos += 4;
                            out.push(char::from_u32(code).ok_or("invalid \\u escape")?);
                        }
                        other => return Err(format!("unknown escape '\\{}'", char::from(other))),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (metric names are free text).
                    let rest =
                        std::str::from_utf8(&self.bytes[self.pos..]).map_err(|e| e.to_string())?;
                    let c = rest.chars().next().expect("non-empty by construction");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<f64, String> {
        if self.bytes[self.pos..].starts_with(b"null") {
            self.pos += 4;
            return Ok(f64::NAN);
        }
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| e.to_string())?
            .parse::<f64>()
            .map_err(|e| format!("bad number at byte {start}: {e}"))
    }

    fn row(&mut self) -> Result<PaperComparison, String> {
        self.skip_ws();
        self.expect(b'{')?;
        let mut metric = None;
        let mut paper = None;
        let mut measured = None;
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            match key.as_str() {
                "metric" => metric = Some(self.string()?),
                "paper" => paper = Some(self.number()?),
                "measured" => measured = Some(self.number()?),
                other => return Err(format!("unknown key {other:?}")),
            }
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            self.expect(b'}')?;
            break;
        }
        Ok(PaperComparison {
            metric: metric.ok_or("row missing \"metric\"")?,
            paper: paper.ok_or("row missing \"paper\"")?,
            measured: measured.ok_or("row missing \"measured\"")?,
        })
    }
}

/// Renders a simple aligned text table.
pub fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let render_row = |cells: &[String], widths: &[usize], out: &mut String| {
        for (i, cell) in cells.iter().enumerate() {
            let w = widths.get(i).copied().unwrap_or(cell.len());
            let _ = write!(out, "| {cell:<w$} ");
        }
        out.push_str("|\n");
    };
    render_row(
        &headers.iter().map(|h| h.to_string()).collect::<Vec<_>>(),
        &widths,
        &mut out,
    );
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    render_row(&sep, &widths, &mut out);
    for row in rows {
        render_row(row, &widths, &mut out);
    }
    out
}

/// Renders a table of (label, duration) pairs in seconds.
pub fn format_duration_table(title: &str, rows: &[(String, Duration)]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|(label, d)| vec![label.clone(), format!("{:.3}", d.as_secs_f64())])
        .collect();
    format!("{title}\n{}", format_table(&["case", "seconds"], &body))
}

/// Formats a ratio ("3.3x") for report text.
pub fn format_speedup(ratio: f64) -> String {
    format!("{ratio:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_aligned_and_contains_all_cells() {
        let s = format_table(
            &["query", "seconds"],
            &[
                vec!["Q1".into(), "317".into()],
                vec!["Q19".into(), "252".into()],
            ],
        );
        assert!(s.contains("Q1"));
        assert!(s.contains("317"));
        assert!(s.contains("Q19"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines.iter().all(|l| l.starts_with('|')));
    }

    #[test]
    fn duration_table_formats_seconds() {
        let s = format_duration_table(
            "Fig 5",
            &[("HDD-only".to_string(), Duration::from_millis(1500))],
        );
        assert!(s.starts_with("Fig 5"));
        assert!(s.contains("1.500"));
    }

    #[test]
    fn comparison_direction() {
        assert!(PaperComparison::new("a", 7.2, 4.0).same_direction());
        assert!(PaperComparison::new("b", 0.8, 0.7).same_direction());
        assert!(!PaperComparison::new("c", 3.0, 0.5).same_direction());
        assert!(PaperComparison::new("d", 1.0, 2.0).same_direction());
    }

    #[test]
    fn speedup_formatting() {
        assert_eq!(format_speedup(3.275), "3.27x");
    }

    #[test]
    fn json_round_trips_comparison_rows() {
        let rows = vec![
            PaperComparison::new("plain metric", 7.2, 4.0),
            PaperComparison::new("quotes \" and \\ back\nslash", 0.25, 1e-3),
            PaperComparison::new("empty-ish", 0.0, 123456.789),
        ];
        let json = comparisons_to_json(&rows);
        let parsed = comparisons_from_json(&json).expect("round trip parses");
        assert_eq!(parsed, rows);
    }

    #[test]
    fn json_parser_accepts_reordered_keys_and_whitespace() {
        let text = r#" [ {"paper": 1.5, "measured": 2, "metric": "m"} ] "#;
        let rows = comparisons_from_json(text).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].metric, "m");
        assert_eq!(rows[0].paper, 1.5);
        assert_eq!(rows[0].measured, 2.0);
        assert_eq!(comparisons_from_json("[]").unwrap(), vec![]);
    }

    #[test]
    fn json_parser_rejects_malformed_input() {
        assert!(comparisons_from_json("").is_err());
        assert!(comparisons_from_json("[{\"metric\": \"m\"}]").is_err());
        assert!(comparisons_from_json("[] trailing").is_err());
        assert!(comparisons_from_json("[{\"metric\": \"m\", \"paper\": x}]").is_err());
    }
}
