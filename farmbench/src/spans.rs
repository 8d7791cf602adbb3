//! Spans recorded by the benchmark around its own calls into the farm and
//! the solver layers.
//!
//! A span has a name, a start, an end and a parent.  Spans go into a
//! buffer preallocated before measuring; when it is full further spans are
//! counted as dropped instead of growing it, so recording never allocates.
//! The buffer is written out as tab-separated text when the run ends, and
//! [`SpanBuf::ledger`] reduces it to per-name totals and self time (a
//! span's duration minus the part of it its children cover).

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Span id meaning "no parent".
pub const ROOT: u32 = 0;

/// One recorded span; times are nanoseconds since the buffer's origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Parent span id, or [`ROOT`].
    pub parent: u32,
    /// Span name.
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// The job (stream position) the span belongs to.
    pub job: u64,
}

/// Per-name totals of a span buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerRow {
    /// Span name.
    pub name: &'static str,
    /// Spans of this name.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
}

/// A fixed-capacity, in-memory span buffer.
#[derive(Debug)]
pub struct SpanBuf {
    origin: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl SpanBuf {
    /// A buffer holding at most `capacity` spans, timed from `origin`.
    pub fn new(origin: Instant, capacity: usize) -> SpanBuf {
        SpanBuf {
            origin,
            spans: Vec::with_capacity(capacity),
            dropped: 0,
        }
    }

    /// Nanoseconds from the origin to `t` (0 for instants before it).
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span and returns its id, or [`ROOT`] when the buffer is
    /// full (the span is then only counted as dropped).
    pub fn push(&mut self, parent: u32, name: &'static str, start: u64, end: u64, job: u64) -> u32 {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return ROOT;
        }
        self.spans.push(Span {
            parent,
            name,
            start,
            end: end.max(start),
            job,
        });
        self.spans.len() as u32
    }

    /// Records a span from two instants.
    pub fn push_at(
        &mut self,
        parent: u32,
        name: &'static str,
        start: Instant,
        end: Instant,
        job: u64,
    ) -> u32 {
        let (s, e) = (self.ns(start), self.ns(end));
        self.push(parent, name, s, e, job)
    }

    /// Sets the end of an open span (pushed with its start as its end);
    /// a no-op for [`ROOT`], the id of a dropped span.
    pub fn finish(&mut self, id: u32, end: Instant) {
        let end = self.ns(end);
        if let Some(span) = (id as usize)
            .checked_sub(1)
            .and_then(|k| self.spans.get_mut(k))
        {
            span.end = end.max(span.start);
        }
    }

    /// Spans that did not fit.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per-name count, total time and self time, in first-seen order.
    pub fn ledger(&self) -> Vec<LedgerRow> {
        // Children sorted by (parent, start); one sweep per parent merges
        // their intervals, clipped to the parent, into covered time.
        let mut children: Vec<(u32, u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent != ROOT)
            .map(|s| (s.parent, s.start, s.end))
            .collect();
        children.sort_unstable();
        let mut covered = vec![0u64; self.spans.len()];
        let mut i = 0;
        while i < children.len() {
            let parent = children[i].0;
            let p = &self.spans[parent as usize - 1];
            let (mut run_start, mut run_end) = (0u64, 0u64);
            let mut total = 0u64;
            while i < children.len() && children[i].0 == parent {
                let (s, e) = (children[i].1.max(p.start), children[i].2.min(p.end));
                i += 1;
                if s >= e {
                    continue;
                }
                if s > run_end {
                    total += run_end - run_start;
                    run_start = s;
                    run_end = e;
                } else {
                    run_end = run_end.max(e);
                }
            }
            total += run_end - run_start;
            covered[parent as usize - 1] = total;
        }
        let mut rows: Vec<LedgerRow> = Vec::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            let dur = span.end - span.start;
            let row = match rows.iter_mut().position(|r| r.name == span.name) {
                Some(k) => &mut rows[k],
                None => {
                    rows.push(LedgerRow {
                        name: span.name,
                        count: 0,
                        total_ns: 0,
                        self_ns: 0,
                    });
                    rows.last_mut().expect("just pushed")
                }
            };
            row.count += 1;
            row.total_ns += dur;
            row.self_ns += dur.saturating_sub(covered);
        }
        rows
    }

    /// Writes every span as `id parent name start_ns end_ns job` lines.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns\tjob")?;
        for (k, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                k + 1,
                s.parent,
                s.name,
                s.start,
                s.end,
                s.job
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut buf = SpanBuf::new(Instant::now(), 8);
        let root = buf.push(ROOT, "job", 0, 100, 1);
        buf.push(root, "a", 10, 30, 1);
        buf.push(root, "b", 20, 40, 1); // overlaps a
        buf.push(root, "c", 90, 120, 1); // clipped at the parent's end
        let ledger = buf.ledger();
        assert_eq!(ledger[0].name, "job");
        assert_eq!(ledger[0].self_ns, 100 - 30 - 10);
        assert_eq!(ledger[1].self_ns, 20);
        // A full buffer drops instead of growing.
        for _ in 0..10 {
            buf.push(ROOT, "x", 0, 1, 2);
        }
        assert_eq!(buf.len(), 8);
        assert_eq!(buf.dropped(), 6);
    }
}
