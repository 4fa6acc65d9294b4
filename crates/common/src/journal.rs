//! The crc-guarded JSONL line framing every journal in the workspace
//! shares, and an appender that writes whole lines and flushes each write.
//!
//! A line is one self-contained JSON object, so a killed process loses
//! at most the line it was writing. Readers verify a per-line FNV-1a
//! checksum ([`crate::checksum`]) and skip anything torn or scribbled, so
//! a journal that crosses a crash — or a disk that lost its tail — still
//! yields every intact line.
//!
//! The payload is hex-encoded: hex keeps the line format trivial to
//! parse without a JSON-escape round-trip (this crate is
//! dependency-free).
//!
//! Line shape (versioned so a future format can coexist; the head fields
//! are the caller's):
//!
//! ```json
//! {"v":1,"op":"accept","id":7,"crc":"<16 hex>","payload":"<hex>"}
//! ```

use crate::checksum;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;

/// Appends framed lines to a journal file, flushing each write so a kill
/// loses at most the line being written.
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

    /// Appends lines already [`frame`]d, all in one write, and flushes
    /// them to the OS: a batch costs one write however many lines it holds.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error on a failed write.
    pub fn append_frames(&mut self, lines: &str) -> io::Result<()> {
        self.file.write_all(lines.as_bytes())?;
        self.file.flush()
    }

    /// Appends a line headed by a memo key and a point label. Nothing in
    /// the workspace writes these lines any more: this exists only for
    /// the ledger's journal-append micro leg (`benchmark/src/micro.rs`).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error on a failed write.
    pub fn append(&mut self, key: u128, point: &str, payload: &str) -> io::Result<()> {
        // Anything that could end the JSON string is filtered out of the
        // label, so the line stays valid JSON whatever it is given.
        let point: String =
            point.chars().filter(|c| c.is_ascii_graphic() && *c != '"' && *c != '\\').collect();
        let head = format!("\"key\":\"{key:032x}\",\"point\":\"{point}\"");
        self.append_frames(&frame(&head, payload))
    }
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
    fn frame_roundtrip() {
        let payload = "cycles 42\ninstructions 7\ndesign Sh16+C8+Boost\n";
        let line = frame("\"op\":\"done\",\"id\":7", payload);
        assert!(line.ends_with('\n'));
        let line = line.trim_end();
        assert_eq!(unframe(line).as_deref(), Some(payload));
        assert_eq!(field(line, "op").as_deref(), Some("done"));
        assert_eq!(field(line, "id").as_deref(), Some("7"));
        assert!(unframe(&line.replace("\"v\":1", "\"v\":2")).is_none(), "unversioned");
    }

    #[test]
    fn missing_journal_is_empty() {
        let (lines, skipped) = read_intact(Path::new("/nonexistent/journal.jsonl"), unframe);
        assert!(lines.is_empty());
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
