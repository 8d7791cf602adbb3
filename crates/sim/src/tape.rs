//! Time-indexed injection tapes.
//!
//! Every boundary of the two arrays consumes its data on a schedule whose
//! entry cycles are closed-form (`i + 2k`, `j + 2k`,
//! `i + j + max(i, j) + w − 1`, …).  A [`Tape`] materialises such a schedule
//! as a CSR-style structure bucketed by cycle: `at(t)` returns the slice of
//! entries injected at cycle `t` with no hashing and no per-cycle
//! allocation.  This is the flat-buffer idiom of the related accelerator
//! simulators (tiled execution over precomputed schedules) applied to the
//! paper's systolic boundaries.
//!
//! Tapes are **reusable**: a run stages its events with [`Tape::push`] and
//! lays them out with [`Tape::seal`]; both reuse the buffers of the previous
//! run, so rebuilding a tape inside a warm
//! [`crate::HexScratch`] / [`crate::LinearScratch`] allocates nothing.

/// A reusable schedule of injection events bucketed by cycle.
#[derive(Debug, Clone, Default)]
pub(crate) struct Tape<E> {
    /// `offsets[t]..offsets[t + 1]` indexes the entries of cycle `t`.
    offsets: Vec<u32>,
    entries: Vec<E>,
    /// Staging area for the next [`Tape::seal`]: `(cycle, entry)`.
    staged: Vec<(u32, E)>,
    /// Per-cycle write cursors of the counting-sort scatter in
    /// [`Tape::seal`], kept to reuse the allocation.
    cursors: Vec<u32>,
}

impl<E: Copy> Tape<E> {
    /// An empty tape with no buffers allocated yet.
    pub(crate) fn new() -> Self {
        Tape {
            offsets: Vec::new(),
            entries: Vec::new(),
            staged: Vec::new(),
            cursors: Vec::new(),
        }
    }

    /// Discards any previously staged events (the sealed layout is
    /// untouched until the next [`Tape::seal`]) and makes room for at least
    /// `capacity` events, so staging a known-size schedule performs at most
    /// one growth even on a cold tape.
    pub(crate) fn begin(&mut self, capacity: usize) {
        self.staged.clear();
        self.staged.reserve(capacity);
    }

    /// Stages one event for the next [`Tape::seal`].
    #[inline]
    pub(crate) fn push(&mut self, cycle: usize, entry: E) {
        self.staged.push((cycle as u32, entry));
    }

    /// Lays the staged events out over cycles `0..n_cycles`, reusing the
    /// tape's buffers.  The layout is a counting sort — count per cycle,
    /// prefix-sum, scatter — so sealing is O(events + cycles) with no
    /// comparison sort, and events keep their staging order within a cycle
    /// (the scatter cursor advances monotonically), matching the injection
    /// order of the boundary loops the tape replaces.
    ///
    /// # Panics
    ///
    /// Panics if a staged event names a cycle `>= n_cycles`.
    pub(crate) fn seal(&mut self, n_cycles: usize) {
        self.offsets.clear();
        self.offsets.resize(n_cycles + 1, 0);
        for &(cycle, _) in &self.staged {
            assert!(
                (cycle as usize) < n_cycles,
                "event at cycle {cycle} beyond horizon {n_cycles}"
            );
            self.offsets[cycle as usize + 1] += 1;
        }
        for t in 1..self.offsets.len() {
            self.offsets[t] += self.offsets[t - 1];
        }
        self.cursors.clear();
        self.cursors.extend_from_slice(&self.offsets[..n_cycles]);
        self.entries.clear();
        if let Some(&(_, filler)) = self.staged.first() {
            self.entries.resize(self.staged.len(), filler);
            for &(cycle, entry) in &self.staged {
                let at = &mut self.cursors[cycle as usize];
                self.entries[*at as usize] = entry;
                *at += 1;
            }
        }
        self.staged.clear();
    }

    /// The entries injected at cycle `t` (empty past the horizon).
    #[inline]
    pub(crate) fn at(&self, t: usize) -> &[E] {
        if t + 1 >= self.offsets.len() {
            return &[];
        }
        &self.entries[self.offsets[t] as usize..self.offsets[t + 1] as usize]
    }

    /// Number of entries over all cycles of the sealed layout.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// The first cycle `>= t` that injects anything, or `None` when the rest
    /// of the tape is silent.  Used by the engines' event-driven cycle
    /// skipping to fast-forward across idle stretches.
    pub(crate) fn next_event_at_or_after(&self, t: usize) -> Option<usize> {
        if self.offsets.is_empty() {
            return None;
        }
        let n_cycles = self.offsets.len() - 1;
        if t >= n_cycles || self.offsets[t] == *self.offsets.last().unwrap() {
            return None;
        }
        (t..n_cycles).find(|&c| self.offsets[c + 1] > self.offsets[c])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tape_from(n_cycles: usize, events: &[(usize, &'static str)]) -> Tape<&'static str> {
        let mut tape = Tape::new();
        tape.begin(events.len());
        for &(cycle, entry) in events {
            tape.push(cycle, entry);
        }
        tape.seal(n_cycles);
        tape
    }

    #[test]
    fn buckets_by_cycle_preserving_insertion_order() {
        let tape = tape_from(5, &[(3, "c"), (0, "a"), (3, "d"), (1, "b")]);
        assert_eq!(tape.at(0), ["a"]);
        assert_eq!(tape.at(1), ["b"]);
        assert!(tape.at(2).is_empty());
        assert_eq!(tape.at(3), ["c", "d"]);
        assert!(tape.at(4).is_empty());
        assert!(tape.at(100).is_empty());
    }

    #[test]
    fn empty_tape() {
        let tape = tape_from(3, &[]);
        assert!(tape.at(0).is_empty());
        assert!(tape.at(2).is_empty());
        assert_eq!(tape.next_event_at_or_after(0), None);
    }

    #[test]
    fn reuse_discards_the_previous_events() {
        let mut tape = tape_from(4, &[(1, "x"), (3, "y")]);
        tape.begin(1);
        tape.push(2, "z");
        tape.seal(3);
        assert!(tape.at(1).is_empty());
        assert_eq!(tape.at(2), ["z"]);
        assert!(tape.at(3).is_empty());
    }

    #[test]
    fn next_event_scans_forward() {
        let tape = tape_from(10, &[(2, "a"), (7, "b")]);
        assert_eq!(tape.next_event_at_or_after(0), Some(2));
        assert_eq!(tape.next_event_at_or_after(2), Some(2));
        assert_eq!(tape.next_event_at_or_after(3), Some(7));
        assert_eq!(tape.next_event_at_or_after(8), None);
    }

    #[test]
    #[should_panic(expected = "beyond horizon")]
    fn rejects_events_past_the_horizon() {
        let _ = tape_from(2, &[(2, "late")]);
    }
}
