//! Spans recorded around the calls into each layer, and the self-time
//! arithmetic over them. Spans live in a preallocated buffer during the
//! run and are written as JSON lines when the benchmark ends.

use std::io::Write;
use std::path::Path;

/// No parent: the span is the root of its request.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`ROOT`].
    pub parent: u32,
    /// Spans of one request share this identifier.
    pub request: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A fixed-capacity span buffer: recording never allocates, and spans past
/// the capacity are counted instead of kept.
pub struct SpanBuf {
    spans: Vec<Span>,
    pub dropped: u64,
}

impl SpanBuf {
    pub fn with_capacity(capacity: usize) -> Self {
        SpanBuf { spans: Vec::with_capacity(capacity), dropped: 0 }
    }

    /// Record a span; returns its index (the `parent` of its children), or
    /// [`ROOT`] if the buffer was full.
    pub fn push(&mut self, span: Span) -> u32 {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return ROOT;
        }
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn append(&mut self, other: &SpanBuf) {
        // Parents index into the buffer they were recorded in.
        let base = self.spans.len() as u32;
        for s in &other.spans {
            let parent = if s.parent == ROOT { ROOT } else { s.parent + base };
            self.push(Span { parent, ..*s });
        }
        self.dropped += other.dropped;
    }

    /// One JSON object per line: id, name, start, end, self time, parent,
    /// request.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (s, self_ns)) in self.spans.iter().zip(self_times(&self.spans)).enumerate() {
            let parent = if s.parent == ROOT { "null".to_string() } else { s.parent.to_string() };
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its child spans cover (overlapping children are counted once, and the
/// part of a child outside the parent not at all).
pub fn self_time_ns(span: &Span, children: &[Span]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    span.dur_ns() - covered
}

/// Self time of every span in `spans`, by index.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<Span>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != ROOT {
            children[s.parent as usize].push(*s);
        }
    }
    spans.iter().zip(&children).map(|(s, c)| self_time_ns(s, c)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span { name: "t", start_ns, end_ns, parent, request: 0 }
    }

    #[test]
    fn self_time_subtracts_covered_part_once() {
        let parent = span(100, 200, ROOT);
        assert_eq!(self_time_ns(&parent, &[]), 100);
        // Two disjoint children: 20 + 30 covered.
        assert_eq!(self_time_ns(&parent, &[span(110, 130, 0), span(150, 180, 0)]), 50);
        // Overlapping children cover 110..160 once.
        assert_eq!(self_time_ns(&parent, &[span(110, 150, 0), span(130, 160, 0)]), 50);
        // A child reaching outside the parent only counts inside it.
        assert_eq!(self_time_ns(&parent, &[span(50, 120, 0), span(190, 400, 0)]), 70);
        // Children covering everything leave nothing.
        assert_eq!(self_time_ns(&parent, &[span(0, 300, 0)]), 0);
    }

    #[test]
    fn self_times_follow_parent_links() {
        let spans = [span(0, 100, ROOT), span(0, 60, 0), span(0, 10, 1), span(10, 50, 1)];
        assert_eq!(self_times(&spans), vec![40, 10, 10, 40]);
    }

    #[test]
    fn buffer_counts_what_it_cannot_keep() {
        let mut buf = SpanBuf::with_capacity(2);
        assert_eq!(buf.push(span(0, 1, ROOT)), 0);
        assert_eq!(buf.push(span(0, 1, 0)), 1);
        assert_eq!(buf.push(span(0, 1, 0)), ROOT);
        assert_eq!((buf.spans().len(), buf.dropped), (2, 1));
    }
}
