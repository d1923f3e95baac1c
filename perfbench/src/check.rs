//! Output checks: per-row digests and the expected rows pinned in
//! `perfbench/expected/`.
//!
//! Every workload reduces its output to rows keyed by their first CSV field
//! (a benchmark name or a repair-scheme label). A row carries the CSV line the
//! library's report renders and an FNV-1a digest of the raw simulated counters
//! behind it, so a check catches any change to a simulated statistic, not only
//! to the six printed decimals.

use crate::Kind;

/// One checked output row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    pub key: String,
    pub csv: String,
    pub digest: u64,
}

/// 64-bit FNV-1a over a sequence of words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn word(self, word: u64) -> Self {
        self.bytes(&word.to_le_bytes())
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The digest of a whole output: the digest of its row digests, in order.
pub fn output_digest(rows: &[Row]) -> u64 {
    rows.iter()
        .fold(Fnv::new(), |h, r| h.word(r.digest))
        .finish()
}

/// The data lines of a library CSV report (header and `mean` footer dropped),
/// keyed by their first field.
pub fn csv_rows(csv: &str) -> Vec<(String, String)> {
    csv.lines()
        .skip(1)
        .filter(|line| !line.starts_with("mean,"))
        .map(|line| {
            let key = line.split(',').next().unwrap_or_default().to_string();
            (key, line.to_string())
        })
        .collect()
}

/// Pinned expected rows, one per line: `seed<TAB>digest<TAB>csv-row`.
fn pinned(kind: Kind) -> &'static str {
    match kind {
        Kind::OooSynthetic => include_str!("../expected/ooo-synthetic.tsv"),
        Kind::InorderRiscv => include_str!("../expected/inorder-riscv.tsv"),
        Kind::FleetL2 => include_str!("../expected/fleet-l2.tsv"),
    }
}

/// The repository's golden scheme matrix, whose rows the `ooo-synthetic`
/// workload reproduces at the default seed.
const SCHEME_MATRIX_GOLDEN: &str = include_str!("../../tests/golden/scheme_matrix.csv");

/// Expected rows for `seed`, or `None` when the seed is not pinned (then
/// only panics and errors count as failures).
pub fn expected(kind: Kind, seed: u64) -> Option<Vec<Row>> {
    let rows: Vec<Row> = pinned(kind)
        .lines()
        .filter_map(|line| {
            let mut fields = line.splitn(3, '\t');
            let s: u64 = fields.next()?.parse().ok()?;
            let digest = u64::from_str_radix(fields.next()?, 16).ok()?;
            let csv = fields.next()?.to_string();
            (s == seed).then(|| Row {
                key: csv.split(',').next().unwrap_or_default().to_string(),
                csv,
                digest,
            })
        })
        .collect();
    (!rows.is_empty()).then_some(rows)
}

/// Renders rows in the pinned-file format.
pub fn pinned_lines(seed: u64, rows: &[Row]) -> String {
    rows.iter()
        .map(|r| format!("{seed}\t{:016x}\t{}\n", r.digest, r.csv))
        .collect()
}

/// Keys of the rows in `actual` that differ from the expectation: a wrong
/// digest or CSV line, a row the expectation lacks, or (for the default seed
/// of `ooo-synthetic`) a CSV line that differs from the repository golden.
pub fn failed_keys(kind: Kind, seed: u64, expected: &[Row], actual: &[Row]) -> Vec<String> {
    let golden = if kind == Kind::OooSynthetic && seed == 0 {
        csv_rows(SCHEME_MATRIX_GOLDEN)
    } else {
        Vec::new()
    };
    let mut failed: Vec<String> = actual
        .iter()
        .filter(|row| {
            let pinned_ok = expected.iter().any(|e| e == *row);
            let golden_ok = golden.is_empty()
                || golden
                    .iter()
                    .any(|(k, csv)| *k == row.key && *csv == row.csv);
            !(pinned_ok && golden_ok)
        })
        .map(|row| row.key.clone())
        .collect();
    for e in expected {
        if !actual.iter().any(|row| row.key == e.key) {
            failed.push(e.key.clone());
        }
    }
    failed
}
