package interval

import "math"

// Ranks fills ranks, of len(events), with each event's rank among the
// distinct values of events, 0 for the smallest, and returns the number of
// distinct values: ranks[i] < ranks[k] exactly when events[i] < events[k],
// and the ranks are equal exactly when the values are (−0 and +0 included).
// events is not modified.
func Ranks(events []float64, ranks []int32) (distinct int) {
	var prev uint64
	for _, e := range sortByValue(events) {
		if distinct == 0 || e.key != prev {
			prev = e.key
			distinct++
		}
		ranks[e.idx] = int32(distinct - 1)
	}
	return distinct
}

// keyedEvent is an event's position and its order key: the float's bits
// mapped to an unsigned integer whose order is the numeric order, with −0
// sharing +0's key.
type keyedEvent struct {
	key uint64
	idx int32
}

// radixBits is the digit width of sortByValue's radix passes; the counts
// of one digit take 8 KiB.
const radixBits = 11

// sortByValue returns the events' keys and positions in ascending order of
// value: an LSD radix sort over 11-bit digits of the keys, skipping the
// passes whose digit every key shares. At 2·10⁵ events it takes less than
// half the time of a comparison sort of the bare floats.
func sortByValue(events []float64) []keyedEvent {
	buf := make([]keyedEvent, 2*len(events))
	a, b := buf[:len(events)], buf[len(events):]
	for i, t := range events {
		u := math.Float64bits(t)
		switch {
		case t == 0:
			u = 1 << 63
		case u>>63 != 0:
			u = ^u // negative: larger magnitudes sort first
		default:
			u |= 1 << 63
		}
		a[i] = keyedEvent{u, int32(i)}
	}
	var count [1 << radixBits]int32
	const mask = 1<<radixBits - 1
	for shift := 0; shift < 64 && len(a) > 1; shift += radixBits {
		clear(count[:])
		for _, e := range a {
			count[e.key>>shift&mask]++
		}
		if int(count[a[0].key>>shift&mask]) == len(a) {
			continue
		}
		sum := int32(0)
		for i, c := range count {
			count[i], sum = sum, sum+c
		}
		for _, e := range a {
			digit := e.key >> shift & mask
			b[count[digit]] = e
			count[digit]++
		}
		a, b = b, a
	}
	return a
}
