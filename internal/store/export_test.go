package store

// PoisonUnpinned turns the rule that a *Page is valid only while pinned
// into something a test can see. From now on, when a page's last pin is
// dropped (Unpin, FreePage) the pool moves the page to a fresh frame and
// fills the one it left — the one every *Page handed out so far points into
// — with 0xA5 under page id 0. Anything read through a stale *Page is then
// garbage at once, not only after some other request has evicted the page
// and reused its frame.
func (bp *BufferPool) PoisonUnpinned() {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.onUnpinned = func(f *frame) *frame {
		moved := &frame{page: f.page}
		f.page.id = InvalidPageID
		for i := range f.page.data {
			f.page.data[i] = 0xA5
		}
		return moved
	}
}
