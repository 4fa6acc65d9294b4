//! Append-only JSONL checkpoint journal for long sweeps.
//!
//! Each completed simulation point is appended as one self-contained JSON
//! line; a killed process therefore loses at most the line it was writing.
//! Readers verify a per-line FNV-1a checksum ([`crate::checksum`]) and
//! silently skip anything torn or scribbled, so a journal that crosses a
//! crash — or a disk that lost its tail — still resumes every intact
//! point instead of aborting the sweep.
//!
//! The payload is hex-encoded: it carries the runner's multi-line
//! serialized statistics, and hex keeps the line format trivial to parse
//! without a JSON-escape round-trip (this crate is dependency-free).
//!
//! Line shape (versioned so a future format can coexist):
//!
//! ```json
//! {"v":1,"key":"<32 hex>","point":"C-BLK/Pr4","crc":"<16 hex>","payload":"<hex>"}
//! ```

use crate::checksum;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;

/// One intact journal record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// The memo key of the simulation point (stable across processes).
    pub key: u128,
    /// Human-readable `APP/DESIGN` label, for reports only.
    pub point: String,
    /// The serialized statistics payload the checksum covered.
    pub payload: String,
}

/// Appends checkpoint records to a journal file, flushing each line so a
/// kill loses at most the record being written.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
}

impl JournalWriter {
    /// Opens `path` for appending, creating it if absent.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the file cannot be opened.
    pub fn open(path: &Path) -> io::Result<JournalWriter> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(JournalWriter { file })
    }

    /// Appends one record and flushes it to the OS.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error on a failed write.
    pub fn append(&mut self, key: u128, point: &str, payload: &str) -> io::Result<()> {
        let line = render_line(key, point, payload);
        self.file.write_all(line.as_bytes())?;
        self.file.flush()
    }
}

/// Renders one journal line (exposed for tests and tooling).
#[must_use]
pub fn render_line(key: u128, point: &str, payload: &str) -> String {
    // `point` is an APP/DESIGN label (alphanumerics, `/`, `+`, `-`), safe
    // to embed without JSON escaping; anything exotic is filtered here so
    // the line stays valid JSON regardless.
    let point: String =
        point.chars().filter(|c| c.is_ascii_graphic() && *c != '"' && *c != '\\').collect();
    frame(&format!("\"key\":\"{key:032x}\",\"point\":\"{point}\""), payload)
}

/// The line framing every journal in the workspace shares: a version tag,
/// the caller's own `head` fields (rendered `"name":value` pairs, comma
/// separated), then the checksum and hex-encoded form of `payload`.
#[must_use]
pub fn frame(head: &str, payload: &str) -> String {
    let crc = checksum::fnv64_hex(payload.as_bytes());
    let hex = hex_encode(payload.as_bytes());
    format!("{{\"v\":1,{head},\"crc\":\"{crc}\",\"payload\":\"{hex}\"}}\n")
}

/// Inverse of [`frame`]: the payload of one line, or `None` when the line
/// is unversioned, malformed, or fails its checksum. The caller reads its
/// own head fields with [`field`].
#[must_use]
pub fn unframe(line: &str) -> Option<String> {
    if field(line, "v")? != "1" {
        return None;
    }
    let payload = hex_decode(&field(line, "payload")?)?;
    if !checksum::verify_hex(&payload, &field(line, "crc")?) {
        return None;
    }
    String::from_utf8(payload).ok()
}

/// Every line of the journal at `path` that `parse` accepts, plus the
/// number of torn or corrupt lines it rejected; a missing file is an empty
/// journal, not an error.
#[must_use]
pub fn read_intact<T>(path: &Path, parse: impl Fn(&str) -> Option<T>) -> (Vec<T>, usize) {
    let Ok(text) = std::fs::read_to_string(path) else {
        return (Vec::new(), 0);
    };
    let mut out = Vec::new();
    let mut skipped = 0usize;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        match parse(line) {
            Some(e) => out.push(e),
            None => skipped += 1,
        }
    }
    (out, skipped)
}

/// Reads every intact record from `path`, skipping torn or corrupt lines.
/// Returns the entries plus the number of lines skipped; a missing file is
/// an empty journal, not an error.
#[must_use]
pub fn read_entries(path: &Path) -> (Vec<JournalEntry>, usize) {
    read_intact(path, parse_line)
}

/// Parses one line; `None` when the line is malformed, unversioned, or
/// fails its checksum.
#[must_use]
pub fn parse_line(line: &str) -> Option<JournalEntry> {
    let payload = unframe(line)?;
    let key = u128::from_str_radix(&field(line, "key")?, 16).ok()?;
    Some(JournalEntry { key, point: field(line, "point")?, payload })
}

/// Extracts the value of `"name":...` from a flat JSON object of
/// string/number fields. Sufficient for [`frame`]d lines (values never
/// contain quotes); not a general JSON parser.
#[must_use]
pub fn field(line: &str, name: &str) -> Option<String> {
    let tag = format!("\"{name}\":");
    let at = line.find(&tag)? + tag.len();
    let rest = &line[at..];
    if let Some(s) = rest.strip_prefix('"') {
        Some(s[..s.find('"')?].to_string())
    } else {
        let end = rest.find([',', '}'])?;
        Some(rest[..end].trim().to_string())
    }
}

fn hex_encode(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push(char::from_digit(u32::from(b >> 4), 16).unwrap_or('0'));
        s.push(char::from_digit(u32::from(b & 0xf), 16).unwrap_or('0'));
    }
    s
}

fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let mut out = Vec::with_capacity(s.len() / 2);
    let bytes = s.as_bytes();
    for pair in bytes.chunks_exact(2) {
        let hi = (pair[0] as char).to_digit(16)?;
        let lo = (pair[1] as char).to_digit(16)?;
        #[expect(clippy::cast_possible_truncation)] // two hex digits fit u8
        out.push((hi * 16 + lo) as u8);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_roundtrip() {
        let payload = "cycles 42\ninstructions 7\ndesign Sh16+C8+Boost\n";
        let line = render_line(0xDEAD_BEEF, "C-BLK/Sh16+C8+Boost", payload);
        assert!(line.ends_with('\n'));
        let e = parse_line(line.trim_end()).expect("intact line parses");
        assert_eq!(e.key, 0xDEAD_BEEF);
        assert_eq!(e.point, "C-BLK/Sh16+C8+Boost");
        assert_eq!(e.payload, payload);
    }

    #[test]
    fn torn_and_corrupt_lines_are_skipped() {
        let dir = std::env::temp_dir().join(format!("dcl1-journal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.jsonl");
        let _ = std::fs::remove_file(&path);

        let mut w = JournalWriter::open(&path).unwrap();
        w.append(1, "A/P", "one\n").unwrap();
        w.append(2, "B/Q", "two\n").unwrap();
        drop(w);
        // Simulate a kill mid-append: a torn third line.
        let good = std::fs::read_to_string(&path).unwrap();
        let torn = render_line(3, "C/R", "three\n");
        std::fs::write(&path, format!("{good}{}", &torn[..torn.len() / 2])).unwrap();

        let (entries, skipped) = read_entries(&path);
        assert_eq!(entries.len(), 2);
        assert_eq!(skipped, 1);
        assert_eq!(entries[0].key, 1);
        assert_eq!(entries[1].payload, "two\n");

        // A scribbled payload fails its checksum and is skipped too.
        let mut bad = render_line(4, "D/S", "four\n");
        let flip = bad.rfind('0').unwrap_or(bad.len() - 10);
        bad.replace_range(flip..=flip, "1");
        std::fs::write(&path, format!("{good}{bad}")).unwrap();
        let (entries, skipped) = read_entries(&path);
        assert_eq!(entries.len(), 2, "corrupt line must not parse");
        assert_eq!(skipped, 1);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_journal_is_empty() {
        let (entries, skipped) = read_entries(Path::new("/nonexistent/journal.jsonl"));
        assert!(entries.is_empty());
        assert_eq!(skipped, 0);
    }

    #[test]
    fn hex_helpers() {
        assert_eq!(hex_encode(b"\x00\xffA"), "00ff41");
        assert_eq!(hex_decode("00ff41").unwrap(), b"\x00\xffA");
        assert!(hex_decode("abc").is_none(), "odd length");
        assert!(hex_decode("zz").is_none(), "non-hex");
    }
}
