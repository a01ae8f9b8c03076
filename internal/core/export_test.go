package core

// ResetClears returns the assignment entries and the bitmap words the
// resets of sc's schedules have cleared since sc was created.
func (sc *Scratch) ResetClears() (entries, words int) {
	return sc.clearedEntries, sc.clearedWords
}
