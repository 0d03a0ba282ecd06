//! The CRC32-sealed JSONL log behind both the sweep checkpoint
//! ([`Runner::checkpoint`]) and the admission write-ahead log
//! ([`AdmitConfig::durable`](crate::AdmitConfig::durable)).
//!
//! A log is one header line carrying a configuration fingerprint, then
//! one JSON line per record. A sealed record line reads
//! `{"<Variant>":{"crc":<u32>,"record":<record JSON>}}`, where `crc` is
//! the CRC32 of the record's own canonical JSON ([`seal`]), so any
//! value-altering corruption is caught when the log is read back.
//! [`sealed_line`] writes such a line into one buffer: the vendored
//! serializer streams the record's JSON straight into the line after its
//! `"record":` key (no value tree, no second string), [`crc32`] checksums
//! that span eight bytes per step, and the checksum's digits are spliced
//! in after `"crc":`. The bytes are those serializing the whole line
//! would produce; a unit test pins one line of every record kind.
//! [`load`] checks the header and
//! every seal, skips an unparseable *final* line (the write a killed
//! process tore) and reports where the valid prefix ends;
//! [`SealedLog::reopen`] cuts the torn tail off and restores a missing
//! final newline before appending, so the next record always starts a
//! line of its own. [`SealedLog::append`] retries transient I/O failures
//! with bounded exponential backoff ([`Runner::CHECKPOINT_RETRY_LIMIT`] /
//! [`Runner::CHECKPOINT_BACKOFF_BASE`]).
//!
//! What a record holds is the owning log's business: a checkpoint record
//! is one replication; an admission record is one concluded request,
//! whose graph is written inline the first time its content is sealed
//! and referenced by content hash afterwards (see
//! [`AdmissionController::recover`](crate::AdmissionController::recover)).
//!
//! # Durability
//!
//! Every append reaches the operating system before it returns, and is
//! never fsynced. A record whose append returned therefore survives the
//! writing process dying — SIGKILL, a panic, an abort — but not an
//! operating-system crash or a power loss, which can drop page-cache
//! data the kernel has not yet written back.

use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use serde::{Deserialize, JsonWriter, Serialize};

use crate::{RunError, Runner};

/// One line of a sealed log: the header or a record.
pub(crate) trait SealedLine: Serialize + Deserialize {
    /// What log messages call this kind of log.
    const KIND: &'static str;
    /// The corruption detail for a file whose first line is not a header.
    const NOT_A_HEADER: &'static str;

    /// The configuration fingerprint, when this line is the header.
    fn fingerprint(&self) -> Option<u64>;

    /// Whether the seal this line carries matches its record (trivially
    /// true for an unsealed line).
    fn seal_holds(&self) -> bool;

    /// Counts one retried append in this log's telemetry counter.
    fn count_retry();
}

/// The IEEE CRC32 (zlib/PNG) reflected polynomial.
const CRC32_POLY: u32 = 0xEDB8_8320;

/// The slicing-by-8 lookup tables for [`crc32`], built at compile time.
/// `CRC32_TABLES[0]` is the classic byte-at-a-time table; entry `i` of
/// table `k` is the CRC register after byte `i` is followed by `k` zero
/// bytes, so eight table lookups advance the register by eight bytes.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC32_POLY & 0u32.wrapping_sub(crc & 1));
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// IEEE CRC32 (the zlib/PNG polynomial), eight bytes per step
/// (slicing-by-8), the tail one byte at a time.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC32_TABLES;
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = t7[(lo & 0xFF) as usize]
            ^ t6[((lo >> 8) & 0xFF) as usize]
            ^ t5[((lo >> 16) & 0xFF) as usize]
            ^ t4[(lo >> 24) as usize]
            ^ t3[(hi & 0xFF) as usize]
            ^ t2[((hi >> 8) & 0xFF) as usize]
            ^ t1[((hi >> 16) & 0xFF) as usize]
            ^ t0[(hi >> 24) as usize];
    }
    !chunks.remainder().iter().fold(crc, |crc, &b| {
        (crc >> 8) ^ t0[((crc ^ u32::from(b)) & 0xFF) as usize]
    })
}

/// The CRC32 sealing a record: computed over the record's own canonical
/// JSON (not the enclosing line), so any value-altering corruption —
/// a flipped digit included — changes either the payload or the stored
/// checksum, and re-serializing the parsed record exposes the mismatch.
pub(crate) fn seal<T: Serialize>(record: &T) -> u32 {
    crc32(
        serde_json::to_string(record)
            .expect("plain data serializes")
            .as_bytes(),
    )
}

/// The sealed line `{"<variant>":{"crc":…,"record":…}}` for `record`, in
/// one buffer: the record is written once, straight into the line after
/// its `"record":` key; that text is checksummed ([`seal`]'s value) and
/// the checksum's digits are spliced in after `"crc":`. The bytes equal
/// those of serializing the line enum's `variant { crc, record }` value,
/// for any record (an externally tagged variant whose fields are `crc`
/// then `record`).
pub(crate) fn sealed_line<T: Serialize>(variant: &str, record: &T) -> String {
    let mut line = String::with_capacity(512);
    line.push_str("{\"");
    line.push_str(variant);
    line.push_str("\":{\"crc\":");
    let crc_at = line.len();
    line.push_str(",\"record\":");
    let body_at = line.len();
    record.write_json(&mut JsonWriter::compact(&mut line));
    let crc = crc32(&line.as_bytes()[body_at..]);
    // Room for the digits, the closing braces and the newline
    // `SealedLog::append` adds, so neither the splice nor the append
    // reallocates.
    line.reserve(10 + 2 + 1);
    line.push_str("}}");
    let mut digits = [0u8; 10];
    let mut cursor = std::io::Cursor::new(&mut digits[..]);
    write!(cursor, "{crc}").expect("a u32 has at most 10 digits");
    let len = cursor.position() as usize;
    line.insert_str(
        crc_at,
        std::str::from_utf8(&digits[..len]).expect("decimal digits are ASCII"),
    );
    line
}

/// Replaces the last decimal digit of `text` with a different digit:
/// the deterministic "silent disk corruption" the `checkpoint-corrupt`
/// and `admit-log-corrupt` faults write. The line stays parseable, so
/// only the seal can catch it.
fn corrupt_digit(text: &mut String) {
    if let Some(pos) = text.rfind(|c: char| c.is_ascii_digit()) {
        let old = text.as_bytes()[pos];
        let new = b'0' + (old - b'0' + 1) % 10;
        text.replace_range(pos..=pos, &char::from(new).to_string());
    }
}

/// The `CheckpointCorrupt` error for line `line_no` of the log at `path`.
pub(crate) fn corrupt(path: &Path, line_no: usize, detail: &str) -> RunError {
    RunError::CheckpointCorrupt {
        path: path.to_path_buf(),
        detail: format!("{detail} at line {line_no}"),
    }
}

/// Where the valid prefix of a loaded log ends: anything past it is a
/// torn fragment.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Tail {
    /// Byte offset just past the last valid line (header included).
    len: u64,
    /// Whether that line ends with its `\n` (`false` only when a crash
    /// tore exactly the final record's newline off).
    terminated: bool,
}

/// A log read back by [`load`].
#[derive(Debug)]
pub(crate) struct Loaded<L> {
    /// Every line after the header, with its 1-based line number; each
    /// parsed, is not a header, and carries a seal that holds.
    pub(crate) records: Vec<(usize, L)>,
    /// Where the valid prefix ends, for [`SealedLog::reopen`].
    pub(crate) tail: Tail,
}

/// Reads the log at `path`, checking that its header carries
/// `fingerprint` and that every record's seal holds. `Ok(None)` means the
/// file is empty (created, but its header never written).
///
/// # Errors
///
/// [`RunError::Io`] when the file cannot be read (a missing file
/// included), [`RunError::CheckpointMismatch`] for a header with another
/// fingerprint, and [`RunError::CheckpointCorrupt`] for a missing header
/// or any unparseable, extra-header or seal-breaking line other than an
/// unparseable last one.
pub(crate) fn load<L: SealedLine>(
    path: &Path,
    fingerprint: u64,
) -> Result<Option<Loaded<L>>, RunError> {
    let bytes = std::fs::read(path)?;
    // Split by hand, keeping each line's end offset and whether its `\n`
    // is present: reopening needs both to cut a torn tail off.
    let mut lines: Vec<(&[u8], u64, bool)> = Vec::new();
    let mut start = 0;
    while start < bytes.len() {
        match bytes[start..].iter().position(|&b| b == b'\n') {
            Some(p) => {
                lines.push((&bytes[start..start + p], (start + p + 1) as u64, true));
                start += p + 1;
            }
            None => {
                lines.push((&bytes[start..], bytes.len() as u64, false));
                break;
            }
        }
    }
    let parse = |content: &[u8]| {
        std::str::from_utf8(content)
            .ok()
            .and_then(|text| serde_json::from_str::<L>(text).ok())
    };
    let Some(&(first, len, terminated)) = lines.first() else {
        return Ok(None);
    };
    match parse(first).as_ref().and_then(L::fingerprint) {
        Some(found) if found == fingerprint => {}
        Some(_) => {
            return Err(RunError::CheckpointMismatch {
                path: path.to_path_buf(),
            })
        }
        None => {
            return Err(RunError::CheckpointCorrupt {
                path: path.to_path_buf(),
                detail: L::NOT_A_HEADER.to_owned(),
            })
        }
    }
    let mut tail = Tail { len, terminated };
    let mut records = Vec::with_capacity(lines.len() - 1);
    for (i, &(content, end, terminated)) in lines.iter().enumerate().skip(1) {
        let line_no = i + 1;
        let Some(line) = parse(content) else {
            if line_no == lines.len() {
                tracing::warn!(
                    path = %path.display(),
                    line = line_no,
                    "skipping unparseable final {} line (torn write)",
                    L::KIND
                );
                break;
            }
            return Err(corrupt(path, line_no, "unparseable record"));
        };
        if line.fingerprint().is_some() {
            return Err(corrupt(path, line_no, "unexpected extra header"));
        }
        if !line.seal_holds() {
            return Err(corrupt(path, line_no, "record checksum mismatch"));
        }
        records.push((line_no, line));
        tail = Tail {
            len: end,
            terminated,
        };
    }
    Ok(Some(Loaded { records, tail }))
}

/// An open sealed log, appendable from any thread.
#[derive(Debug)]
pub(crate) struct SealedLog<L> {
    file: Mutex<File>,
    path: PathBuf,
    line: PhantomData<fn(&L)>,
}

impl<L: SealedLine> SealedLog<L> {
    /// Creates (truncating) the log at `path` with `header` as its first
    /// line.
    pub(crate) fn create(path: &Path, header: &L) -> Result<SealedLog<L>, RunError> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        let mut text = serde_json::to_string(header).expect("plain data serializes");
        text.push('\n');
        (&file).write_all(text.as_bytes())?;
        Ok(SealedLog::attach(file, path))
    }

    /// Reopens the log at `path` for appending after [`load`] found its
    /// valid prefix ending at `tail`. A torn fragment past the prefix is
    /// truncated first, and a final record that survived without its
    /// newline gets it back, so the next append starts a fresh line
    /// instead of merging with the fragment.
    pub(crate) fn reopen(path: &Path, tail: Tail) -> Result<SealedLog<L>, RunError> {
        let mut file = OpenOptions::new().append(true).open(path)?;
        let len = file.metadata()?.len();
        if len > tail.len {
            tracing::warn!(
                path = %path.display(),
                kept = tail.len,
                dropped = len - tail.len,
                "truncating torn {} tail before reopening for append",
                L::KIND
            );
            file.set_len(tail.len)?;
        }
        if !tail.terminated {
            file.write_all(b"\n")?;
        }
        Ok(SealedLog::attach(file, path))
    }

    fn attach(file: File, path: &Path) -> SealedLog<L> {
        SealedLog {
            file: Mutex::new(file),
            path: path.to_path_buf(),
            line: PhantomData,
        }
    }

    /// The log's file path.
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// Appends the rendered line `text` (usually from [`sealed_line`]; see
    /// the module docs for what survives which failure). The caller's
    /// fault hooks decide whether the line is written with one digit
    /// corrupted (`corrupt`) and whether attempt `n` fails with an
    /// injected I/O error (`io_fails(n)`). A failed attempt is retried up
    /// to [`Runner::CHECKPOINT_RETRY_LIMIT`] times, backing off
    /// [`Runner::CHECKPOINT_BACKOFF_BASE`] doubled per retry; the error is
    /// returned only once every retry is spent.
    pub(crate) fn append(
        &self,
        mut text: String,
        corrupt: bool,
        mut io_fails: impl FnMut(u64) -> bool,
    ) -> std::io::Result<()> {
        if corrupt {
            corrupt_digit(&mut text);
        }
        text.push('\n');
        let mut attempt: u64 = 0;
        loop {
            let result = if io_fails(attempt) {
                Err(std::io::Error::other(format!(
                    "injected {} write failure",
                    L::KIND
                )))
            } else {
                let file = self.file.lock().expect("sealed log writer poisoned");
                (&*file).write_all(text.as_bytes())
            };
            match result {
                Ok(()) => return Ok(()),
                Err(e) if attempt < u64::from(Runner::CHECKPOINT_RETRY_LIMIT) => {
                    let backoff = Runner::CHECKPOINT_BACKOFF_BASE * 2u32.pow(attempt as u32);
                    tracing::warn!(
                        path = %self.path.display(),
                        attempt = attempt,
                        backoff_ms = backoff.as_millis() as u64,
                        "{} append failed ({e}); retrying",
                        L::KIND
                    );
                    L::count_retry();
                    std::thread::sleep(backoff);
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::admission::{WalLine, WalRecord};
    use crate::runner::{CheckpointLine, FailedReplication, ReplicationRecord};

    /// A minimal log format: a header, then sealed integers.
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    enum TestLine {
        Header { fingerprint: u64 },
        Sealed { crc: u32, record: u64 },
    }

    impl SealedLine for TestLine {
        const KIND: &'static str = "test log";
        const NOT_A_HEADER: &'static str = "first line is not a test log header";

        fn fingerprint(&self) -> Option<u64> {
            match self {
                TestLine::Header { fingerprint } => Some(*fingerprint),
                TestLine::Sealed { .. } => None,
            }
        }

        fn seal_holds(&self) -> bool {
            match self {
                TestLine::Header { .. } => true,
                TestLine::Sealed { crc, record } => seal(record) == *crc,
            }
        }

        fn count_retry() {}
    }

    fn sealed(record: u64) -> TestLine {
        TestLine::Sealed {
            crc: seal(&record),
            record,
        }
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The canonical CRC32 test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    /// The bit-at-a-time CRC32 the tables are built from.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (CRC32_POLY & 0u32.wrapping_sub(crc & 1));
            }
        }
        !crc
    }

    /// The byte-at-a-time CRC32: one lookup in the first table per byte.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        !bytes.iter().fold(!0u32, |crc, &b| {
            (crc >> 8) ^ CRC32_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize]
        })
    }

    /// `len` pseudo-random bytes drawn from `seed`.
    fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 56) as u8
            })
            .collect()
    }

    proptest! {
        #[test]
        fn table_crc32_agrees_with_the_bitwise_one(seed in 0u64..u64::MAX, len in 0usize..2048) {
            let bytes = random_bytes(seed, len);
            prop_assert_eq!(crc32(&bytes), crc32_bitwise(&bytes));
        }

        #[test]
        fn sliced_crc32_agrees_with_the_bytewise_one(
            seed in 0u64..u64::MAX,
            len in 0usize..9000,
            skip in 0usize..8,
        ) {
            // Every length mod 8 and every start alignment.
            let bytes = random_bytes(seed, len + skip);
            let bytes = &bytes[skip..];
            prop_assert_eq!(crc32(bytes), crc32_bytewise(bytes));
        }
    }

    #[test]
    fn one_pass_lines_equal_serializing_the_whole_line() {
        let test = 9_876_543_210u64;
        assert_eq!(
            sealed_line("Sealed", &test),
            serde_json::to_string(&sealed(test)).unwrap()
        );

        let record = ReplicationRecord {
            system_size: 4,
            replication: 17,
            max_lateness: -12.5,
            end_to_end: -3.25,
            makespan: 410.0,
            feasible: true,
            violations: 0,
            window_violations: Some(0),
            schedule_violations: None,
        };
        let checkpoint = CheckpointLine::Sealed {
            crc: seal(&record),
            record,
        };
        assert_eq!(
            sealed_line("Sealed", &record),
            serde_json::to_string(&checkpoint).unwrap()
        );
        let failed = FailedReplication {
            system_size: 2,
            replication: 3,
            stage: "schedule".to_owned(),
            error: "a \"quoted\" failure".to_owned(),
        };
        let checkpoint = CheckpointLine::Failed {
            crc: seal(&failed),
            record: failed.clone(),
        };
        assert_eq!(
            sealed_line("Failed", &failed),
            serde_json::to_string(&checkpoint).unwrap()
        );

        // An inline admit (an `Arc`-shared graph) and a reference.
        for wal in WalRecord::samples() {
            let line = WalLine::Sealed {
                crc: seal(&wal),
                record: wal.clone(),
            };
            assert_eq!(
                sealed_line("Sealed", &wal),
                serde_json::to_string(&line).unwrap()
            );
        }
    }

    /// One sealed line of every kind: a checkpoint `Sealed` and `Failed`
    /// line, then a WAL line per request and outcome kind.
    fn pinned_cases() -> Vec<String> {
        let record = ReplicationRecord {
            system_size: 4,
            replication: 17,
            max_lateness: -12.5,
            end_to_end: 0.1 + 0.2,
            makespan: 4.1e21,
            feasible: true,
            violations: 0,
            window_violations: Some(0),
            schedule_violations: None,
        };
        let failed = FailedReplication {
            system_size: 2,
            replication: 3,
            stage: "schedule".to_owned(),
            error: "a \"quoted\" failure\n\tat \\ line".to_owned(),
        };
        let mut lines = vec![
            sealed_line("Sealed", &record),
            sealed_line("Failed", &failed),
        ];
        lines.extend(
            WalRecord::samples()
                .iter()
                .map(|wal| sealed_line("Sealed", wal)),
        );
        lines
    }

    /// The bytes [`pinned_cases`] rendered before sealed lines were
    /// streamed: every byte of every log line must stay as it was.
    const PINNED: [&str; 7] = [
        r#"{"Sealed":{"crc":548097339,"record":{"system_size":4,"replication":17,"max_lateness":-12.5,"end_to_end":0.30000000000000004,"makespan":4.1e21,"feasible":true,"violations":0,"window_violations":0,"schedule_violations":null}}}"#,
        r#"{"Failed":{"crc":2923714045,"record":{"system_size":2,"replication":3,"stage":"schedule","error":"a \"quoted\" failure\n\tat \\ line"}}}"#,
        r#"{"Sealed":{"crc":1546789048,"record":{"seq":0,"request":{"Admit":{"id":7,"graph":{"nodes":[{"name":"in \"quoted\"","wcet":10,"release":0,"deadline":null},{"name":null,"wcet":20,"release":null,"deadline":90}],"edges":[{"src":0,"dst":1,"items":3}],"succ":[[0],[]],"pred":[[],[0]],"topo":[0,1],"inputs":[0],"outputs":[1]},"origin":40}},"outcome":{"Refused":{"DuplicateId":{"id":7}}},"digest":18369614221190020847}}}"#,
        r#"{"Sealed":{"crc":265153907,"record":{"seq":1,"request":{"AdmitRef":{"id":7,"graph":14039307398373125539,"origin":41}},"outcome":{"Refused":{"DuplicateId":{"id":7}}},"digest":18446744073709551615}}}"#,
        r#"{"Sealed":{"crc":3345398623,"record":{"seq":2,"request":{"Amend":{"id":7,"delta":{"ops":[{"SetWcet":{"subtask":0,"wcet":15}},{"SetRelease":{"subtask":1,"release":null}},{"AddSubtask":{"subtask":{"name":"tab\there","wcet":5,"release":null,"deadline":null}}},{"RemoveEdge":{"src":0,"dst":1}}]}}},"outcome":{"Verdict":{"id":7,"admitted":true,"max_lateness":-12,"end_to_end":-3,"makespan":130,"violations":0,"repaired":false,"residents":2}},"digest":0}}}"#,
        r#"{"Sealed":{"crc":85811564,"record":{"seq":3,"request":{"Amend":{"id":7,"delta":{"ops":[{"SetWcet":{"subtask":0,"wcet":15}},{"SetRelease":{"subtask":1,"release":null}},{"AddSubtask":{"subtask":{"name":"tab\there","wcet":5,"release":null,"deadline":null}}},{"RemoveEdge":{"src":0,"dst":1}}]}}},"outcome":{"Shed":{"waited_us":1234}},"digest":42}}}"#,
        r#"{"Sealed":{"crc":575328741,"record":{"seq":4,"request":{"AdmitRef":{"id":8,"graph":14039307398373125539,"origin":-5}},"outcome":{"Failed":{"stage":"slice"}},"digest":1}}}"#,
    ];

    #[test]
    fn sealed_lines_keep_their_pinned_bytes() {
        let lines = pinned_cases();
        assert_eq!(lines.len(), PINNED.len());
        for (line, pinned) in lines.iter().zip(PINNED) {
            assert_eq!(line, pinned);
        }
    }

    #[test]
    fn corrupt_digit_keeps_the_line_parseable_but_breaks_the_seal() {
        let mut text = serde_json::to_string(&sealed(1_234_567)).unwrap();
        corrupt_digit(&mut text);
        let parsed: TestLine = serde_json::from_str(&text).expect("still parses");
        assert!(matches!(parsed, TestLine::Sealed { .. }), "got {parsed:?}");
        assert!(!parsed.seal_holds(), "corruption must break the seal");
    }
}
