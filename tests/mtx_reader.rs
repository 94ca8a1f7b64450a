//! Differential test of the streaming Matrix Market reader against the
//! line-based reader it replaced: on every input below, and on every
//! truncation and single-bit flip of two small samples, both readers must
//! return the same entries in the same order (values compared bit for
//! bit) or the same error. The one intended difference: the old reader
//! panicked on a zero or above-`u32` dimension, where the new one returns
//! a `ParseError` at the size line.

use gust_sparse::io::{read_matrix_market, write_matrix_market};
use gust_sparse::{gen, CooMatrix, SparseError};

/// The line-based reader, verbatim, kept as the reference the streaming
/// reader is checked against. Test-only: not a production path.
mod oracle {
    use gust_sparse::{CooMatrix, SparseError};
    use std::io::{BufRead, BufReader, Read};

    pub fn read_matrix_market<R: Read>(reader: R) -> Result<CooMatrix, SparseError> {
        let mut lines = BufReader::new(reader).lines().enumerate();

        // Header line.
        let (idx, header) = next_line(&mut lines)?;
        let header_lc = header.to_ascii_lowercase();
        let fields: Vec<&str> = header_lc.split_whitespace().collect();
        if fields.len() < 5 || fields[0] != "%%matrixmarket" || fields[1] != "matrix" {
            return Err(parse_err(idx, "expected '%%MatrixMarket matrix …' header"));
        }
        if fields[2] != "coordinate" {
            return Err(parse_err(
                idx,
                format!(
                    "unsupported storage '{}': only 'coordinate' is supported",
                    fields[2]
                ),
            ));
        }
        let field_kind = fields[3];
        if !matches!(field_kind, "real" | "integer" | "pattern") {
            return Err(parse_err(
                idx,
                format!("unsupported field '{field_kind}': use real/integer/pattern"),
            ));
        }
        let symmetry = fields[4];
        if !matches!(symmetry, "general" | "symmetric" | "skew-symmetric") {
            return Err(parse_err(idx, format!("unsupported symmetry '{symmetry}'")));
        }

        // Size line (first non-comment line).
        let (idx, size_line) = next_content_line(&mut lines)?;
        let dims: Vec<&str> = size_line.split_whitespace().collect();
        if dims.len() != 3 {
            return Err(parse_err(idx, "size line must be 'rows cols nnz'"));
        }
        let rows: usize = parse_num(dims[0], idx, "rows")?;
        let cols: usize = parse_num(dims[1], idx, "cols")?;
        let nnz: usize = parse_num(dims[2], idx, "nnz")?;

        let mut coo = CooMatrix::new(rows, cols);
        let mut seen = 0usize;
        while seen < nnz {
            let (idx, line) = next_content_line(&mut lines)?;
            let parts: Vec<&str> = line.split_whitespace().collect();
            let expected_parts = if field_kind == "pattern" { 2 } else { 3 };
            if parts.len() < expected_parts {
                return Err(parse_err(
                    idx,
                    format!("entry needs {expected_parts} fields, found {}", parts.len()),
                ));
            }
            let r: usize = parse_num(parts[0], idx, "row index")?;
            let c: usize = parse_num(parts[1], idx, "column index")?;
            if r == 0 || c == 0 {
                return Err(parse_err(idx, "matrix market indices are 1-based"));
            }
            let value: f32 = if field_kind == "pattern" {
                1.0
            } else {
                parts[2]
                    .parse::<f32>()
                    .map_err(|e| parse_err(idx, format!("bad value '{}': {e}", parts[2])))?
            };
            coo.push(r - 1, c - 1, value)?;
            if symmetry != "general" && r != c {
                let mirrored = if symmetry == "skew-symmetric" {
                    -value
                } else {
                    value
                };
                coo.push(c - 1, r - 1, mirrored)?;
            }
            seen += 1;
        }
        coo.check_duplicates()?;
        Ok(coo)
    }

    type Lines<R> = std::iter::Enumerate<std::io::Lines<BufReader<R>>>;

    fn next_line<R: Read>(lines: &mut Lines<R>) -> Result<(usize, String), SparseError> {
        match lines.next() {
            Some((i, Ok(line))) => Ok((i + 1, line)),
            Some((i, Err(e))) => Err(parse_err(i + 1, format!("io error: {e}"))),
            None => Err(parse_err(0, "unexpected end of file")),
        }
    }

    fn next_content_line<R: Read>(lines: &mut Lines<R>) -> Result<(usize, String), SparseError> {
        loop {
            let (idx, line) = next_line(lines)?;
            let trimmed = line.trim();
            if !trimmed.is_empty() && !trimmed.starts_with('%') {
                return Ok((idx, trimmed.to_string()));
            }
        }
    }

    fn parse_num(token: &str, line: usize, what: &str) -> Result<usize, SparseError> {
        token
            .parse::<usize>()
            .map_err(|e| parse_err(line, format!("bad {what} '{token}': {e}")))
    }

    fn parse_err(line: usize, message: impl Into<String>) -> SparseError {
        SparseError::ParseError {
            line,
            message: message.into(),
        }
    }
}

/// Asserts both readers agree on `input`.
fn assert_same(input: &[u8], context: &str) {
    let new = read_matrix_market(input);
    let old = std::panic::catch_unwind(|| oracle::read_matrix_market(input));
    match (new, old) {
        (Ok(new), Ok(Ok(old))) => assert_same_entries(&new, &old, context),
        (Err(new), Ok(Err(old))) => assert_eq!(new, old, "{context}: errors differ"),
        (Err(SparseError::ParseError { .. }), Err(panic)) => {
            let why = panic
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
                .unwrap_or_default();
            assert!(
                why.contains("dimension"),
                "{context}: the old reader panicked for another reason: {why}"
            );
        }
        (new, old) => panic!("{context}: new reader gave {new:?}, old reader gave {old:?}"),
    }
}

fn assert_same_entries(new: &CooMatrix, old: &CooMatrix, context: &str) {
    assert_eq!(
        (new.rows(), new.cols()),
        (old.rows(), old.cols()),
        "{context}: shape"
    );
    let (new_rows, new_cols, new_vals) = new.raw_parts();
    let (old_rows, old_cols, old_vals) = old.raw_parts();
    assert_eq!(new_rows, old_rows, "{context}: row indices");
    assert_eq!(new_cols, old_cols, "{context}: column indices");
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(new_vals), bits(old_vals), "{context}: value bits");
}

fn header(field: &str, symmetry: &str) -> String {
    format!("%%MatrixMarket matrix coordinate {field} {symmetry}\n")
}

#[test]
fn every_field_and_symmetry_agrees() {
    for field in ["real", "integer", "pattern"] {
        for symmetry in ["general", "symmetric", "skew-symmetric"] {
            let entries = if field == "pattern" {
                "1 1\n3 1\n2 2\n4 3\n"
            } else {
                "1 1 2\n3 1 -1.5\n2 2 7\n4 3 0.25\n"
            };
            let text = format!("{}% c\n4 4 4\n{entries}", header(field, symmetry));
            assert_same(text.as_bytes(), &format!("{field} {symmetry}"));
        }
    }
}

#[test]
fn line_ends_whitespace_and_comments_agree() {
    let h = header("real", "general");
    let cases = [
        (
            "crlf",
            format!("{h}3 3 2\r\n1 1 1\r\n2 3 4.5\r\n").replace('\n', "\r\n"),
        ),
        ("no final newline", format!("{h}3 3 2\n1 1 1\n2 3 4.5")),
        (
            "bare cr inside",
            format!("{h}3 3 2\n1\r1 1\n2 3\r4.5\r\r\n"),
        ),
        ("tabs", format!("{h}3\t3\t2\n\t1\t1\t1\t\n2 3\t4.5\n")),
        (
            "vertical tab and form feed",
            format!("{h}3 3 2\n1\x0B1\x0C1\n\x0C2 3 4.5\x0B\n"),
        ),
        (
            "blank lines",
            format!("{h}\n3 3 2\n\n   \n1 1 1\n\t\n2 3 4.5\n"),
        ),
        (
            "comments",
            format!("{h}%a\n3 3 2\n% b\n1 1 1\n  %c 9 9 9\n2 3 4.5\n%\n"),
        ),
        (
            "extra tokens",
            format!("{h}3 3 2\n1 1 1 extra 9\n2 3 4.5 %\n"),
        ),
        ("plus on indices", format!("{h}3 3 2\n+1 +1 1\n2 +3 4.5\n")),
        (
            "leading zeros",
            format!("{h}3 3 2\n001 0001 0000001\n2 3 00000001\n"),
        ),
        (
            "trailing garbage",
            format!("{h}3 3 1\n1 1 1\nnot an entry \u{0}\n"),
        ),
        (
            "trailing non-ASCII text",
            format!("{h}3 3 1\n1 1 1\n\u{FFFD}"),
        ),
    ];
    for (name, text) in &cases {
        assert_same(text.as_bytes(), name);
    }
    let mut garbage = format!("{h}3 3 1\n1 1 1\n").into_bytes();
    garbage.extend_from_slice(b"\xff\xfe\n");
    assert_same(&garbage, "trailing invalid UTF-8 is never read");
}

#[test]
fn values_agree_bit_for_bit() {
    let h = header("real", "general");
    for value in [
        "1e-3",
        "-0",
        "0",
        "+0",
        "inf",
        "-inf",
        "NaN",
        "nan",
        "infinity",
        "9999999",
        "16777216",
        "16777217",
        "+7",
        "-7",
        "1.",
        ".5",
        "1e40",
        "-1e-50",
        "0x10",
        "1_0",
        "abc",
        "--1",
        "3.4028236e38",
        "00000000016777217",
    ] {
        let text = format!("{h}2 2 1\n2 1 {value}\n");
        assert_same(text.as_bytes(), &format!("value {value}"));
        let skew = format!("{}2 2 1\n2 1 {value}\n", header("real", "skew-symmetric"));
        assert_same(skew.as_bytes(), &format!("skew value {value}"));
    }
}

#[test]
fn malformed_entries_agree() {
    let h = header("real", "general");
    for entry in [
        "0 1 1",
        "1 0 1",
        "4 1 1",
        "1 4 1",
        "1",
        "1 1",
        "",
        "-1 1 1",
        "1 -1 1",
        "++1 1 1",
        "+ 1 1",
        "1 + 1",
        "18446744073709551615 1 1",
        "18446744073709551616 1 1",
        "99999999999999999999999 1 1",
        "1 1 1\n1 1 2",
    ] {
        let text = format!("{h}3 3 2\n2 2 5\n{entry}\n");
        assert_same(text.as_bytes(), &format!("entry {entry:?}"));
    }
    for text in [
        String::new(),
        h.clone(),
        "%%MatrixMarket matrix array real general\n".to_string(),
        format!("{h}3 3\n"),
        format!("{h}3 3 x\n"),
        format!("{h}3 3 2 1\n"),
        format!("{h}0 5 0\n"),
        format!("{h}5 0 0\n"),
        format!("{h}5 4294967296 0\n"),
        format!("{h}3 3 2\n1 1 1\n"),
    ] {
        assert_same(text.as_bytes(), &format!("{text:?}"));
    }
}

#[test]
fn non_ascii_lines_agree() {
    let h = header("real", "general");
    let cases: Vec<Vec<u8>> = vec![
        format!("{h}3 3 2\n1\u{A0}1 1\n2 3\u{85}4.5\n").into_bytes(),
        format!("{h}3 3 2\n\u{A0}1 1 1\u{2003}\n2 3 4.5\n").into_bytes(),
        format!("{h}3 3 2\n\u{85}% comment\n1 1 1\n2 3 4.5\n").into_bytes(),
        format!("{h}3 3 2\n1 1 1 é\n2 3 4.5\n").into_bytes(),
        format!("{h}3 3 2\n1 1 ١\n2 3 4.5\n").into_bytes(),
        format!("{h}3\u{A0}3 2\n1 1 1\n2 3 4.5\n").into_bytes(),
        [format!("{h}3 3 2\n1 1 1 ").as_bytes(), b"\xff\n2 3 4.5\n"].concat(),
        [
            format!("{h}3 3 2\n% bad ").as_bytes(),
            b"\xc3\x28\n1 1 1\n2 3 4.5\n",
        ]
        .concat(),
        [
            b"%%MatrixMarket matrix coordinate real general \x80\n".as_slice(),
            b"1 1 0\n",
        ]
        .concat(),
    ];
    for (i, text) in cases.iter().enumerate() {
        assert_same(text, &format!("non-ASCII case {i}"));
    }
}

#[test]
fn multi_block_file_agrees() {
    // Several read blocks' worth of text, so lines straddle block ends.
    let coo = gen::uniform(2000, 2000, 40_000, 11);
    let mut text = Vec::new();
    write_matrix_market(&coo, &mut text).expect("write to vec");
    assert!(text.len() > 3 << 18, "sample must span several blocks");
    assert_same(&text, "multi-block");
}

/// Every truncation and every single-bit flip of `text` must agree.
fn sweep(text: &str, name: &str) {
    let bytes = text.as_bytes();
    for cut in 0..=bytes.len() {
        assert_same(&bytes[..cut], &format!("{name} truncated at {cut}"));
    }
    for byte in 0..bytes.len() {
        for bit in 0..8 {
            let mut damaged = bytes.to_vec();
            damaged[byte] ^= 1 << bit;
            assert_same(
                &damaged,
                &format!("{name}: bit {bit} of byte {byte} flipped"),
            );
        }
    }
}

#[test]
fn damaged_symmetric_sample_agrees() {
    sweep(
        "%%MatrixMarket matrix coordinate real symmetric\n% sample\n10 10 5\n1 1 2.5\n3 1 -1\n\
         10 4 7\n6 6 1e-3\n9 2 12\n",
        "symmetric",
    );
}

#[test]
fn damaged_pattern_sample_agrees() {
    sweep(
        "%%MatrixMarket matrix coordinate pattern general\n10 12 5\n1 1\n3 12\n\n10 4\n6 6\n9 2\n",
        "pattern",
    );
}
