//! Record payloads and the delivery checker.
//!
//! Every payload carries the producer id, a per-(producer, stream)
//! sequence number and the time the send was due, followed by seeded
//! random bytes. The sink feeds each delivered record to [`SeqChecker`],
//! which requires the sequence numbers of every (producer, stream) pair
//! to arrive strictly increasing with no gaps, and the tail bytes to be
//! the ones the generator wrote.

use std::collections::BTreeSet;

use kera_common::rng::SplitMix64;

/// Bytes of the fixed payload header: producer (4), sequence (8), due
/// time in ns since the run's epoch (8).
pub const HEADER: usize = 20;
/// Distinct random tails the generator cycles through.
const TAILS: usize = 256;

/// Builds and verifies payloads of one run.
pub struct Payloads {
    size: usize,
    tails: Vec<u8>,
}

impl Payloads {
    /// `size`-byte payloads whose random tails derive from `seed`.
    pub fn new(size: usize, seed: u64) -> Self {
        assert!(size >= HEADER);
        let mut rng = SplitMix64::new(seed);
        let mut tails = vec![0u8; (size - HEADER) * TAILS];
        rng.fill_bytes(&mut tails);
        Self { size, tails }
    }

    fn tail(&self, producer: u32, stream: u32, seq: u64) -> &[u8] {
        let len = self.size - HEADER;
        let i = (seq as usize)
            .wrapping_add(stream as usize * 7)
            .wrapping_add(producer as usize * 13)
            % TAILS;
        &self.tails[i * len..(i + 1) * len]
    }

    /// Writes the payload of record `seq` of (`producer`, `stream`).
    #[inline]
    pub fn fill(&self, buf: &mut [u8], producer: u32, stream: u32, seq: u64, due_ns: u64) {
        buf[0..4].copy_from_slice(&producer.to_le_bytes());
        buf[4..12].copy_from_slice(&seq.to_le_bytes());
        buf[12..20].copy_from_slice(&due_ns.to_le_bytes());
        buf[HEADER..self.size].copy_from_slice(self.tail(producer, stream, seq));
    }

    /// Decodes a payload delivered on `stream`: `(producer, seq, due_ns)`,
    /// or `None` if its length or tail bytes are not what was sent.
    #[inline]
    pub fn parse(&self, stream: u32, value: &[u8]) -> Option<(u32, u64, u64)> {
        if value.len() != self.size {
            return None;
        }
        let producer = u32::from_le_bytes(value[0..4].try_into().ok()?);
        let seq = u64::from_le_bytes(value[4..12].try_into().ok()?);
        let due = u64::from_le_bytes(value[12..20].try_into().ok()?);
        (value[HEADER..] == *self.tail(producer, stream, seq)).then_some((producer, seq, due))
    }
}

/// Per-(producer, stream) sequence checker.
///
/// A sequence number above the expected one opens a gap; one below it is
/// a reorder if it fills an open gap and a duplicate otherwise. Gaps
/// still open at the end are lost records.
pub struct SeqChecker {
    streams: u32,
    /// Next expected sequence number, indexed `producer * streams + s`.
    next: Vec<u64>,
    /// Skipped sequence numbers per pair (touched only on anomalies).
    missing: Vec<BTreeSet<u64>>,
    pub delivered: u64,
    pub duplicates: u64,
    pub reorders: u64,
    /// Payloads that did not decode or named an unknown producer.
    pub corrupt: u64,
    first_error: Option<String>,
}

impl SeqChecker {
    /// Streams are numbered `0..streams` here (stream id minus one).
    pub fn new(producers: u32, streams: u32) -> Self {
        let n = (producers * streams) as usize;
        Self {
            streams,
            next: vec![0; n],
            missing: vec![BTreeSet::new(); n],
            delivered: 0,
            duplicates: 0,
            reorders: 0,
            corrupt: 0,
            first_error: None,
        }
    }

    fn note(&mut self, msg: impl FnOnce() -> String) {
        if self.first_error.is_none() {
            self.first_error = Some(msg());
        }
    }

    /// A payload that failed to decode.
    pub fn corrupt(&mut self, stream: u32) {
        self.corrupt += 1;
        self.note(|| format!("corrupt payload on stream index {stream}"));
    }

    /// One delivered record.
    #[inline]
    pub fn observe(&mut self, producer: u32, stream: u32, seq: u64) {
        let i = (producer * self.streams + stream) as usize;
        if stream >= self.streams || i >= self.next.len() {
            self.corrupt(stream);
            return;
        }
        self.delivered += 1;
        let expected = self.next[i];
        if seq == expected {
            self.next[i] = seq + 1;
        } else if seq > expected {
            // Bounded: a wild sequence number is a corrupt record, not a
            // billion-entry gap.
            if seq - expected > 1 << 20 {
                self.corrupt += 1;
                self.note(|| format!("sequence jump {expected}->{seq} (p{producer} s{stream})"));
                return;
            }
            self.missing[i].extend(expected..seq);
            self.next[i] = seq + 1;
        } else if self.missing[i].remove(&seq) {
            self.reorders += 1;
            self.note(|| format!("reorder: seq {seq} after {expected} (p{producer} s{stream})"));
        } else {
            self.duplicates += 1;
            self.note(|| format!("duplicate: seq {seq} (p{producer} s{stream})"));
        }
    }

    /// Records skipped and never delivered so far.
    pub fn gaps(&self) -> u64 {
        self.missing.iter().map(|m| m.len() as u64).sum()
    }

    /// Checks the final state against what the generator sent (and had
    /// acknowledged) per pair: every pair must have delivered exactly
    /// `sent[i]` records, in order. Returns a description of each
    /// violation.
    pub fn verify(&self, sent: &[u64]) -> Vec<String> {
        let mut errors = Vec::new();
        if let Some(e) = &self.first_error {
            errors.push(e.clone());
        }
        let gaps = self.gaps();
        if gaps > 0 {
            errors.push(format!("{gaps} records missing inside delivered sequences"));
        }
        if self.duplicates + self.reorders + self.corrupt > 0 {
            errors.push(format!(
                "{} duplicates, {} reorders, {} corrupt",
                self.duplicates, self.reorders, self.corrupt
            ));
        }
        let short: Vec<usize> = (0..self.next.len())
            .filter(|&i| self.next[i] != sent[i])
            .collect();
        if let Some(&i) = short.first() {
            errors.push(format!(
                "{} pairs end short of what was sent; first p{} s{}: delivered up to {} of {}",
                short.len(),
                i as u32 / self.streams,
                i as u32 % self.streams,
                self.next[i],
                sent[i]
            ));
        }
        errors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean(checker: &mut SeqChecker, n: u64) {
        for seq in 0..n {
            checker.observe(1, 2, seq);
        }
    }

    fn sent(n: u64) -> Vec<u64> {
        let mut s = vec![0; 2 * 3];
        s[3 + 2] = n;
        s
    }

    #[test]
    fn clean_stream_passes() {
        let mut c = SeqChecker::new(2, 3);
        clean(&mut c, 100);
        assert!(c.verify(&sent(100)).is_empty());
        assert_eq!(c.delivered, 100);
    }

    #[test]
    fn injected_duplicate_is_caught() {
        let mut c = SeqChecker::new(2, 3);
        for seq in [0, 1, 2, 2, 3] {
            c.observe(1, 2, seq);
        }
        assert_eq!(c.duplicates, 1);
        assert_eq!(c.reorders, 0);
        assert!(!c.verify(&sent(4)).is_empty());
    }

    #[test]
    fn injected_gap_is_caught() {
        let mut c = SeqChecker::new(2, 3);
        for seq in [0, 1, 3, 4] {
            c.observe(1, 2, seq);
        }
        assert_eq!(c.gaps(), 1);
        let errors = c.verify(&sent(5));
        assert!(errors.iter().any(|e| e.contains("missing")), "{errors:?}");
    }

    #[test]
    fn injected_reorder_is_caught() {
        let mut c = SeqChecker::new(2, 3);
        for seq in [0, 2, 1, 3] {
            c.observe(1, 2, seq);
        }
        assert_eq!(c.reorders, 1);
        assert_eq!(c.duplicates, 0);
        assert_eq!(c.gaps(), 0);
        assert!(!c.verify(&sent(4)).is_empty());
    }

    #[test]
    fn lost_tail_is_caught() {
        let mut c = SeqChecker::new(2, 3);
        clean(&mut c, 90);
        let errors = c.verify(&sent(100));
        assert!(errors.iter().any(|e| e.contains("short")), "{errors:?}");
    }

    #[test]
    fn payload_roundtrip_and_corruption() {
        let p = Payloads::new(100, 42);
        let mut buf = [0u8; 100];
        p.fill(&mut buf, 3, 17, 12345, 999);
        assert_eq!(p.parse(17, &buf), Some((3, 12345, 999)));
        // Delivered on the wrong stream: the tail no longer matches.
        assert_eq!(p.parse(18, &buf), None);
        buf[60] ^= 1;
        assert_eq!(p.parse(17, &buf), None);
        assert_eq!(p.parse(17, &buf[..99]), None);
    }
}
