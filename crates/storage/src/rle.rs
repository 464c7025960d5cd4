//! Run-length encoding of the user column (§4.1).
//!
//! Within a chunk, the user column is a sequence of runs because the table
//! is sorted by `(Au, At, Ae)`. Each run is a triple `(u, f, n)`: the user's
//! global id, the row position of the user's first tuple in the chunk, and
//! the number of tuples. The modified TableScan iterates these triples to
//! implement `GetNextUser` and `SkipCurUser`.

use crate::bitpack::BitPacked;

/// One `(u, f, n)` triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UserRun {
    /// Global id of the user in the user column's global dictionary.
    pub user_gid: u32,
    /// Row index of the user's first tuple within the chunk.
    pub first: u32,
    /// Number of tuples for this user.
    pub count: u32,
}

/// The RLE-compressed user column of one chunk. The three triple components
/// are stored as separate bit-packed arrays so each is packed at its own
/// minimal width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UserRle {
    users: BitPacked,
    firsts: BitPacked,
    counts: BitPacked,
}

impl UserRle {
    /// Build from the per-row user global ids of a chunk. Requires the rows
    /// to be user-clustered (guaranteed by the primary-key sort); panics in
    /// debug builds otherwise.
    pub fn from_rows(user_gids: &[u32]) -> Self {
        let mut users = Vec::new();
        let mut firsts = Vec::new();
        let mut counts = Vec::new();
        let mut i = 0usize;
        while i < user_gids.len() {
            let gid = user_gids[i];
            let start = i;
            while i < user_gids.len() && user_gids[i] == gid {
                i += 1;
            }
            debug_assert!(
                !users.contains(&(gid as u64)),
                "user {gid} appears in two separate runs; input not clustered"
            );
            users.push(gid as u64);
            firsts.push(start as u64);
            counts.push((i - start) as u64);
        }
        UserRle {
            users: BitPacked::from_slice(&users),
            firsts: BitPacked::from_slice(&firsts),
            counts: BitPacked::from_slice(&counts),
        }
    }

    /// Rebuild from raw parts (persistence path).
    pub(crate) fn from_parts(
        users: BitPacked,
        firsts: BitPacked,
        counts: BitPacked,
    ) -> crate::Result<Self> {
        if users.len() != firsts.len() || users.len() != counts.len() {
            return Err(crate::StorageError::Corrupt("user RLE arrays disagree in length".into()));
        }
        Ok(UserRle { users, firsts, counts })
    }

    /// Number of runs == number of distinct users in the chunk.
    pub fn num_users(&self) -> usize {
        self.users.len()
    }

    /// Fetch the `i`-th run.
    #[inline]
    pub fn run(&self, i: usize) -> UserRun {
        UserRun {
            user_gid: self.users.get(i) as u32,
            first: self.firsts.get(i) as u32,
            count: self.counts.get(i) as u32,
        }
    }

    /// Iterate all runs in order.
    pub fn runs(&self) -> impl Iterator<Item = UserRun> + '_ {
        (0..self.num_users()).map(move |i| self.run(i))
    }

    /// Total number of rows covered by the runs.
    pub fn num_rows(&self) -> usize {
        self.runs().map(|r| r.count as usize).sum()
    }

    /// The user global id owning a given row (linear in runs; used only by
    /// tests and the decoder, never on the query hot path).
    pub fn user_at_row(&self, row: usize) -> Option<u32> {
        self.runs()
            .find(|r| (r.first as usize..r.first as usize + r.count as usize).contains(&row))
            .map(|r| r.user_gid)
    }

    /// Re-base the user gids onto a merged dictionary: every gid is replaced
    /// by `remap[gid]` (the decode path for chunks written under an older
    /// dictionary epoch). Run boundaries are untouched; only the gid array
    /// is re-packed, since the merged gids may need a wider bit width; the
    /// run arrays move into the result uncopied.
    pub(crate) fn remap_users(self, remap: &[u32]) -> crate::Result<UserRle> {
        let mut users = Vec::with_capacity(self.users.len());
        for i in 0..self.users.len() {
            let gid = self.users.get(i) as usize;
            let mapped = remap.get(gid).ok_or_else(|| {
                crate::StorageError::Corrupt(format!(
                    "user gid {gid} outside its dictionary epoch (size {})",
                    remap.len()
                ))
            })?;
            users.push(*mapped as u64);
        }
        Ok(UserRle {
            users: BitPacked::from_slice(&users),
            firsts: self.firsts,
            counts: self.counts,
        })
    }

    /// Bytes consumed by the packed arrays.
    pub fn packed_bytes(&self) -> usize {
        self.users.packed_bytes() + self.firsts.packed_bytes() + self.counts.packed_bytes()
    }

    /// Access raw arrays for persistence.
    pub(crate) fn parts(&self) -> (&BitPacked, &BitPacked, &BitPacked) {
        (&self.users, &self.firsts, &self.counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn basic_runs() {
        let rle = UserRle::from_rows(&[5, 5, 5, 2, 2, 9]);
        assert_eq!(rle.num_users(), 3);
        assert_eq!(rle.run(0), UserRun { user_gid: 5, first: 0, count: 3 });
        assert_eq!(rle.run(1), UserRun { user_gid: 2, first: 3, count: 2 });
        assert_eq!(rle.run(2), UserRun { user_gid: 9, first: 5, count: 1 });
        assert_eq!(rle.num_rows(), 6);
    }

    #[test]
    fn user_at_row() {
        let rle = UserRle::from_rows(&[5, 5, 2]);
        assert_eq!(rle.user_at_row(0), Some(5));
        assert_eq!(rle.user_at_row(1), Some(5));
        assert_eq!(rle.user_at_row(2), Some(2));
        assert_eq!(rle.user_at_row(3), None);
    }

    #[test]
    fn empty() {
        let rle = UserRle::from_rows(&[]);
        assert_eq!(rle.num_users(), 0);
        assert_eq!(rle.num_rows(), 0);
    }

    proptest! {
        #[test]
        fn prop_runs_cover_rows(run_lens in proptest::collection::vec(1usize..6, 1..40)) {
            // Build a clustered row sequence with increasing gids.
            let mut rows = Vec::new();
            for (gid, len) in run_lens.iter().enumerate() {
                rows.extend(std::iter::repeat_n(gid as u32, *len));
            }
            let rle = UserRle::from_rows(&rows);
            prop_assert_eq!(rle.num_users(), run_lens.len());
            prop_assert_eq!(rle.num_rows(), rows.len());
            // Runs are contiguous and ordered.
            let mut expected_first = 0u32;
            for (i, r) in rle.runs().enumerate() {
                prop_assert_eq!(r.first, expected_first);
                prop_assert_eq!(r.count as usize, run_lens[i]);
                expected_first += r.count;
            }
        }
    }
}
