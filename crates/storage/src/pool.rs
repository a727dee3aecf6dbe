//! The disk store's buffer pool: a slab of reusable 4 KiB frames, a
//! page → frame table, and an intrusive LRU list for O(1) victim choice.
//!
//! The slab holds at most `capacity` frames in steady state and nothing is
//! allocated per miss: a new page takes over the least-recently-used
//! *clean* frame. Dirty frames are pinned — their bytes exist nowhere else
//! until the next commit — so they sit outside the LRU list, and when every
//! frame is dirty the slab grows past `capacity` by *overflow* frames that
//! [`Pool::commit`] drops again.
//!
//! The pool is a plain single-threaded structure; [`DiskStore`] puts it
//! behind one short latch (readers) or reaches it through `&mut self`
//! (writers). No backend I/O ever happens in here.
//!
//! Part of the zero-panic-site storage zone: every slab access is
//! bounds-checked and a miss in the pool's own bookkeeping degrades to
//! "not resident", never to a panic.
//!
//! [`DiskStore`]: crate::DiskStore

use crate::pagefmt::PAGE_SIZE;

/// One page image.
pub(crate) type PageBuf = [u8; PAGE_SIZE];

/// "No frame" in the page table and the LRU links.
const NONE: u32 = u32::MAX;

struct Frame {
    /// Page held; meaningful once the frame is in the table.
    page: u32,
    /// Pinned until the next commit, and not on the LRU list.
    dirty: bool,
    /// LRU neighbours (towards the most / least recently used end).
    prev: u32,
    next: u32,
    data: Box<PageBuf>,
}

/// Fixed-capacity page cache with exact LRU replacement of clean pages.
pub(crate) struct Pool {
    frames: Vec<Frame>,
    /// Frame index by page id ([`NONE`] = not resident). Four bytes per
    /// page of the file — a thousandth of the data it maps.
    table: Vec<u32>,
    /// Most and least recently used clean frame.
    head: u32,
    tail: u32,
    capacity: usize,
}

impl Pool {
    /// An empty pool of `capacity` frames (allocated on first use).
    pub(crate) fn new(capacity: usize) -> Self {
        Pool {
            frames: Vec::new(),
            table: Vec::new(),
            head: NONE,
            tail: NONE,
            capacity,
        }
    }

    /// Frames currently held (above `capacity` only while dirty pages
    /// overflow it).
    pub(crate) fn resident(&self) -> usize {
        self.frames.len()
    }

    /// A resident page's image, without touching the LRU order.
    pub(crate) fn peek(&self, page: u32) -> Option<&PageBuf> {
        self.frame(self.frame_of(page)?).map(|f| &*f.data)
    }

    /// A resident page's image, marking it most recently used — the read
    /// hit path.
    pub(crate) fn lookup(&mut self, page: u32) -> Option<&PageBuf> {
        let i = self.frame_of(page)?;
        if !self.frame(i)?.dirty && self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
        self.frame(i).map(|f| &*f.data)
    }

    /// A resident page's image for mutation; the frame becomes dirty
    /// (pinned) until [`Pool::commit`].
    pub(crate) fn lookup_mut(&mut self, page: u32) -> Option<&mut PageBuf> {
        let i = self.frame_of(page)?;
        if !self.frame(i)?.dirty {
            self.unlink(i);
        }
        let f = self.frame_mut(i)?;
        f.dirty = true;
        Some(&mut *f.data)
    }

    /// Caches a verified clean image read from the file. A no-op when the
    /// page is already resident (the resident copy is never older than the
    /// file), or when every frame is pinned and `may_grow` is off — readers
    /// then simply go uncached rather than grow the pool.
    pub(crate) fn install_clean(&mut self, page: u32, image: &PageBuf, may_grow: bool) {
        if self.frame_of(page).is_some() {
            return;
        }
        let Some(i) = self.claim(may_grow) else {
            return;
        };
        if let Some(f) = self.frame_mut(i) {
            f.page = page;
            *f.data = *image;
        }
        self.map(page, i);
        self.push_front(i);
    }

    /// A dirty frame for `page` whose content the caller is about to
    /// replace wholesale (a freshly allocated page): the resident frame if
    /// there is one, else a claimed one — growing the slab if all else is
    /// pinned.
    pub(crate) fn install_fresh(&mut self, page: u32) -> Option<&mut PageBuf> {
        let i = match self.frame_of(page) {
            Some(i) => {
                if !self.frame(i)?.dirty {
                    self.unlink(i);
                }
                i
            }
            None => {
                let i = self.claim(true)?;
                self.map(page, i);
                i
            }
        };
        let f = self.frame_mut(i)?;
        f.page = page;
        f.dirty = true;
        Some(&mut *f.data)
    }

    /// Ids of all dirty pages, ascending.
    pub(crate) fn dirty_pages(&self) -> Vec<u32> {
        let mut pages: Vec<u32> = self
            .frames
            .iter()
            .filter(|f| f.dirty)
            .map(|f| f.page)
            .collect();
        pages.sort_unstable();
        pages
    }

    /// After a commit wrote every dirty page out: all frames become clean
    /// (evictable), and the overflow frames are dropped so the pool is back
    /// within `capacity`.
    pub(crate) fn commit(&mut self) {
        let n = u32::try_from(self.frames.len()).unwrap_or(NONE);
        for i in 0..n {
            if let Some(f) = self.frame_mut(i) {
                if f.dirty {
                    f.dirty = false;
                    self.push_front(i);
                }
            }
        }
        for i in (0..n).skip(self.capacity).rev() {
            self.unlink(i);
            if let Some(f) = self.frames.pop() {
                self.unmap(f.page);
            }
        }
    }

    // ---- internals -------------------------------------------------------

    fn frame(&self, i: u32) -> Option<&Frame> {
        self.frames.get(i as usize)
    }

    fn frame_mut(&mut self, i: u32) -> Option<&mut Frame> {
        self.frames.get_mut(i as usize)
    }

    fn frame_of(&self, page: u32) -> Option<u32> {
        self.table
            .get(page as usize)
            .copied()
            .filter(|&i| i != NONE)
    }

    fn map(&mut self, page: u32, frame: u32) {
        let slot = page as usize;
        if self.table.len() <= slot {
            self.table.resize(slot + 1, NONE);
        }
        if let Some(entry) = self.table.get_mut(slot) {
            *entry = frame;
        }
    }

    fn unmap(&mut self, page: u32) {
        if let Some(entry) = self.table.get_mut(page as usize) {
            *entry = NONE;
        }
    }

    /// An unmapped frame, off the LRU list: a new one while the slab is
    /// below capacity, else the least recently used clean frame, else —
    /// everything pinned — an overflow frame if `may_grow`.
    fn claim(&mut self, may_grow: bool) -> Option<u32> {
        if self.frames.len() >= self.capacity {
            let victim = self.tail;
            if victim != NONE {
                self.unlink(victim);
                let page = self.frame(victim)?.page;
                self.unmap(page);
                return Some(victim);
            }
            if !may_grow {
                return None;
            }
        }
        let i = u32::try_from(self.frames.len())
            .ok()
            .filter(|&i| i != NONE)?;
        self.frames.push(Frame {
            page: 0,
            dirty: false,
            prev: NONE,
            next: NONE,
            data: Box::new([0u8; PAGE_SIZE]),
        });
        Some(i)
    }

    /// Takes clean frame `i` off the LRU list. Callers only pass frames
    /// that are on it (clean and mapped).
    fn unlink(&mut self, i: u32) {
        let Some(f) = self.frame_mut(i) else {
            return;
        };
        let (prev, next) = (f.prev, f.next);
        f.prev = NONE;
        f.next = NONE;
        match self.frame_mut(prev) {
            Some(p) => p.next = next,
            None => self.head = next,
        }
        match self.frame_mut(next) {
            Some(n) => n.prev = prev,
            None => self.tail = prev,
        }
    }

    /// Puts frame `i` (off the list) at the most-recently-used end.
    fn push_front(&mut self, i: u32) {
        let old = self.head;
        if let Some(f) = self.frame_mut(i) {
            f.prev = NONE;
            f.next = old;
        }
        match self.frame_mut(old) {
            Some(h) => h.prev = i,
            None => self.tail = i,
        }
        self.head = i;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image(tag: u8) -> PageBuf {
        [tag; PAGE_SIZE]
    }

    /// LRU order from most to least recent, by page id, checked both ways.
    fn lru(pool: &Pool) -> Vec<u32> {
        let mut forward = Vec::new();
        let mut i = pool.head;
        while let Some(f) = pool.frame(i) {
            forward.push(f.page);
            i = f.next;
        }
        let mut backward = Vec::new();
        let mut i = pool.tail;
        while let Some(f) = pool.frame(i) {
            backward.push(f.page);
            i = f.prev;
        }
        backward.reverse();
        assert_eq!(forward, backward, "list links disagree");
        forward
    }

    #[test]
    fn evicts_the_least_recently_used_clean_page() {
        let mut pool = Pool::new(3);
        for page in 1..=3 {
            pool.install_clean(page, &image(page as u8), false);
        }
        assert_eq!(lru(&pool), [3, 2, 1]);
        assert_eq!(pool.lookup(1).map(|d| d[0]), Some(1)); // 1 becomes MRU
        assert_eq!(lru(&pool), [1, 3, 2]);
        pool.install_clean(4, &image(4), false); // evicts 2
        assert_eq!(lru(&pool), [4, 1, 3]);
        assert!(pool.peek(2).is_none());
        assert_eq!(pool.peek(3).map(|d| d[0]), Some(3));
        assert_eq!(pool.resident(), 3, "victim frame reused, none allocated");
        // peek does not reorder
        assert_eq!(lru(&pool), [4, 1, 3]);
    }

    #[test]
    fn dirty_frames_are_pinned_and_overflow_until_commit() {
        let mut pool = Pool::new(2);
        pool.install_fresh(1).unwrap().fill(1);
        pool.install_clean(2, &image(2), false);
        pool.lookup_mut(2).unwrap().fill(22);
        assert!(lru(&pool).is_empty(), "dirty frames are off the list");
        // Everything pinned: a reader's image is not cached ...
        pool.install_clean(3, &image(3), false);
        assert!(pool.peek(3).is_none());
        assert_eq!(pool.resident(), 2);
        // ... a writer's page overflows the slab.
        pool.install_fresh(4).unwrap().fill(4);
        pool.install_clean(5, &image(5), true);
        assert_eq!(pool.resident(), 4);
        assert_eq!(pool.dirty_pages(), [1, 2, 4]);
        assert_eq!(pool.peek(2).map(|d| d[0]), Some(22));

        pool.commit();
        assert_eq!(pool.resident(), 2, "overflow frames dropped");
        assert!(pool.dirty_pages().is_empty());
        assert_eq!(lru(&pool).len(), 2);
        assert!(pool.peek(4).is_none() && pool.peek(5).is_none());
        assert_eq!(pool.peek(1).map(|d| d[0]), Some(1));
        // The survivors are ordinary clean frames again.
        pool.install_clean(6, &image(6), false);
        pool.install_clean(7, &image(7), false);
        assert_eq!(lru(&pool), [7, 6]);
        assert_eq!(pool.resident(), 2);
    }

    #[test]
    fn install_clean_never_overwrites_a_resident_page() {
        let mut pool = Pool::new(2);
        pool.install_fresh(1).unwrap().fill(9);
        pool.install_clean(1, &image(0), true);
        assert_eq!(pool.peek(1).map(|d| d[0]), Some(9));
        assert_eq!(pool.resident(), 1);
    }

    #[test]
    fn install_fresh_reuses_the_resident_frame() {
        let mut pool = Pool::new(2);
        pool.install_clean(1, &image(1), false);
        pool.install_clean(2, &image(2), false);
        pool.install_fresh(1).unwrap().fill(7);
        assert_eq!(lru(&pool), [2]);
        assert_eq!(pool.dirty_pages(), [1]);
        assert_eq!(pool.resident(), 2);
    }
}
