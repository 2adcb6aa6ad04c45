package serve

// StatusSnapshot exposes the series-free snapshot to the external tests.
func (c *Cell) StatusSnapshot() Snapshot { return c.snapshot(false) }
