package core

import (
	"bytes"
	"strings"
	"testing"

	"github.com/tmerge/tmerge/internal/video"
	"github.com/tmerge/tmerge/internal/xrand"
)

func TestMergerEventLogRecordsEffectiveUnions(t *testing.T) {
	m := NewMerger()
	m.Merge(video.MakePairKey(5, 9)) // union {5,9}, canon 5
	m.Merge(video.MakePairKey(9, 5)) // no-op: same group
	m.Merge(video.MakePairKey(9, 2)) // union {2,5,9}, canon 2
	m.Merge(video.MakePairKey(2, 5)) // no-op

	events := m.Events()
	if len(events) != 2 {
		t.Fatalf("logged %d events, want 2 (no-ops must not log)", len(events))
	}
	want := []MergeEvent{
		{Seq: 0, Pair: video.MakePairKey(5, 9), FromA: 5, FromB: 9, Canon: 5},
		{Seq: 1, Pair: video.MakePairKey(2, 9), FromA: 2, FromB: 5, Canon: 2},
	}
	for i, ev := range events {
		if ev != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, ev, want[i])
		}
		if err := ev.Validate(); err != nil {
			t.Errorf("event %d invalid: %v", i, err)
		}
	}
	if m.EventCount() != 2 {
		t.Errorf("EventCount = %d", m.EventCount())
	}
	if got := m.EventsSince(1); len(got) != 1 || got[0].Seq != 1 {
		t.Errorf("EventsSince(1) = %+v", got)
	}
}

func TestMergerEventsUnorderedPairNormalised(t *testing.T) {
	m := NewMerger()
	m.Merge(video.PairKey{A: 9, B: 7}) // raw unordered pair
	ev := m.Events()[0]
	if ev.Pair.A != 7 || ev.Pair.B != 9 {
		t.Errorf("logged pair (%d, %d), want canonical (7, 9)", ev.Pair.A, ev.Pair.B)
	}
	if err := ev.Validate(); err != nil {
		t.Error(err)
	}
}

func TestEventsSincePanicsOutsideRange(t *testing.T) {
	m := NewMerger()
	m.Merge(video.MakePairKey(1, 2))
	for _, n := range []int{-1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("EventsSince(%d) did not panic", n)
				}
			}()
			m.EventsSince(n)
		}()
	}
}

// TestReplayEventsReproducesIdentityMap drives a randomized merge
// sequence and checks that replaying the event log alone reconstructs
// the same canonical mapping and groups.
func TestReplayEventsReproducesIdentityMap(t *testing.T) {
	rng := xrand.New(11)
	m := NewMerger()
	const n = 60
	for i := 0; i < 300; i++ {
		a := video.TrackID(rng.Intn(n))
		b := video.TrackID(rng.Intn(n))
		if a == b {
			continue
		}
		m.Merge(video.MakePairKey(a, b))
	}

	r, err := ReplayEvents(m.Events())
	if err != nil {
		t.Fatal(err)
	}
	for id := video.TrackID(0); id < n; id++ {
		if got, want := r.Canonical(id), m.Canonical(id); got != want {
			t.Fatalf("replayed Canonical(%d) = %d, want %d", id, got, want)
		}
	}
	ga, gb := m.Groups(), r.Groups()
	if len(ga) != len(gb) {
		t.Fatalf("replayed %d groups, want %d", len(gb), len(ga))
	}
}

func TestReplayEventsRejectsInconsistentLogs(t *testing.T) {
	m := NewMerger()
	m.Merge(video.MakePairKey(1, 2))
	m.Merge(video.MakePairKey(3, 4))
	good := append([]MergeEvent(nil), m.Events()...)

	cases := map[string][]MergeEvent{
		"gap in seq": {good[0], {Seq: 5, Pair: video.MakePairKey(3, 4), FromA: 3, FromB: 4, Canon: 3}},
		"redundant union": {good[0],
			{Seq: 1, Pair: video.MakePairKey(1, 2), FromA: 1, FromB: 2, Canon: 1}},
		"wrong source canonical": {good[0],
			{Seq: 1, Pair: video.MakePairKey(2, 4), FromA: 2, FromB: 4, Canon: 2}},
		"unordered pair": {{Seq: 0, Pair: video.PairKey{A: 2, B: 1}, FromA: 2, FromB: 1, Canon: 1}},
		"self union":     {{Seq: 0, Pair: video.MakePairKey(1, 2), FromA: 1, FromB: 1, Canon: 1}},
		"canon not min":  {{Seq: 0, Pair: video.MakePairKey(1, 2), FromA: 1, FromB: 2, Canon: 2}},
		"source above member": {
			{Seq: 0, Pair: video.MakePairKey(1, 2), FromA: 3, FromB: 2, Canon: 2}},
	}
	for name, events := range cases {
		if _, err := ReplayEvents(events); err == nil {
			t.Errorf("%s: ReplayEvents accepted an inconsistent log", name)
		}
	}
}

func TestMergerStateCarriesEventLog(t *testing.T) {
	m := NewMerger()
	m.Merge(video.MakePairKey(4, 8))
	m.Merge(video.MakePairKey(8, 1))

	st := m.State()
	if len(st.Events) != 2 {
		t.Fatalf("state carries %d events, want 2", len(st.Events))
	}
	r, err := RestoreMerger(st)
	if err != nil {
		t.Fatal(err)
	}
	if r.EventCount() != 2 {
		t.Fatalf("restored EventCount = %d", r.EventCount())
	}
	// The restored merger continues the log at the right sequence number.
	r.Merge(video.MakePairKey(1, 3))
	if ev := r.Events()[2]; ev.Seq != 2 || ev.Canon != 1 {
		t.Errorf("continued event = %+v", ev)
	}

	// A tampered event log is rejected.
	bad := m.State()
	bad.Events[1].Seq = 7
	if _, err := RestoreMerger(bad); err == nil {
		t.Error("RestoreMerger accepted a non-contiguous event log")
	}
}

func TestEventLogRoundTrip(t *testing.T) {
	m := NewMerger()
	rng := xrand.New(3)
	for i := 0; i < 40; i++ {
		a := video.TrackID(rng.Intn(20))
		b := video.TrackID(rng.Intn(20))
		if a != b {
			m.Merge(video.MakePairKey(a, b))
		}
	}
	var buf bytes.Buffer
	if err := WriteEventLog(&buf, m.Events()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEventLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != m.EventCount() {
		t.Fatalf("decoded %d events, want %d", len(got), m.EventCount())
	}
	for i, ev := range got {
		if ev != m.Events()[i] {
			t.Errorf("event %d = %+v, want %+v", i, ev, m.Events()[i])
		}
	}
	if _, err := ReplayEvents(got); err != nil {
		t.Errorf("decoded log does not replay: %v", err)
	}
}

func TestReadEventLogRejectsHostileInput(t *testing.T) {
	cases := map[string]string{
		"not json":         "hello\n",
		"unknown field":    `{"seq":0,"pair":{"a":1,"b":2},"from_a":1,"from_b":2,"canon":1,"extra":true}` + "\n",
		"invalid event":    `{"seq":0,"pair":{"a":2,"b":1},"from_a":2,"from_b":1,"canon":1}` + "\n",
		"seq gap":          `{"seq":0,"pair":{"a":1,"b":2},"from_a":1,"from_b":2,"canon":1}` + "\n" + `{"seq":2,"pair":{"a":3,"b":4},"from_a":3,"from_b":4,"canon":3}` + "\n",
		"trailing garbage": `{"seq":0,"pair":{"a":1,"b":2},"from_a":1,"from_b":2,"canon":1} garbage` + "\n",
		"trailing ]":       `{"seq":0,"pair":{"A":1,"B":2},"from_a":1,"from_b":2,"canon":1}]` + "\n",
		"trailing ]]]":     `{"seq":0,"pair":{"A":1,"B":2},"from_a":1,"from_b":2,"canon":1}]]]` + "\n",
		"trailing }":       `{"seq":0,"pair":{"A":1,"B":2},"from_a":1,"from_b":2,"canon":1}}` + "\n",
		"trailing value":   `{"seq":0,"pair":{"A":1,"B":2},"from_a":1,"from_b":2,"canon":1} 7` + "\n",
		"second event":     `{"seq":0,"pair":{"A":1,"B":2},"from_a":1,"from_b":2,"canon":1}{"seq":1,"pair":{"A":3,"B":4},"from_a":3,"from_b":4,"canon":3}` + "\n",
	}
	for name, input := range cases {
		if _, err := ReadEventLog(strings.NewReader(input)); err == nil {
			t.Errorf("%s: ReadEventLog accepted %q", name, input)
		}
	}
	// Blank lines are tolerated.
	ok := "\n" + `{"seq":0,"pair":{"a":1,"b":2},"from_a":1,"from_b":2,"canon":1}` + "\n\n"
	events, err := ReadEventLog(strings.NewReader(ok))
	if err != nil || len(events) != 1 {
		t.Errorf("blank-line log: events=%v err=%v", events, err)
	}
}

// FuzzEventLog hammers the NDJSON decoder with arbitrary bytes: it must
// never panic, and anything it accepts must be internally valid and
// re-encode to an equivalent log.
func FuzzEventLog(f *testing.F) {
	m := NewMerger()
	m.Merge(video.MakePairKey(1, 2))
	m.Merge(video.MakePairKey(2, 3))
	var buf bytes.Buffer
	if err := WriteEventLog(&buf, m.Events()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("")
	f.Add(`{"seq":0,"pair":{"a":1,"b":2},"from_a":1,"from_b":2,"canon":1}`)
	f.Add(`{"seq":-1}`)
	f.Add("\x00\x01\x02")
	f.Add(`{"seq":0,"pair":{"A":1,"B":2},"from_a":1,"from_b":2,"canon":1}]`)
	f.Add(`{"seq":0,"pair":{"A":1,"B":2},"from_a":1,"from_b":2,"canon":1}]]]` + "\n")
	f.Add(`{"seq":0,"pair":{"A":1,"B":2},"from_a":1,"from_b":2,"canon":1}}`)

	f.Fuzz(func(t *testing.T, input string) {
		events, err := ReadEventLog(strings.NewReader(input))
		if err != nil {
			return
		}
		for i, ev := range events {
			if verr := ev.Validate(); verr != nil {
				t.Fatalf("accepted invalid event %d: %v", i, verr)
			}
			if i > 0 && ev.Seq != events[i-1].Seq+1 {
				t.Fatalf("accepted non-contiguous log at %d", i)
			}
		}
		var out bytes.Buffer
		if err := WriteEventLog(&out, events); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		back, err := ReadEventLog(&out)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if len(back) != len(events) {
			t.Fatalf("round trip changed length: %d != %d", len(back), len(events))
		}
		for i := range back {
			if back[i] != events[i] {
				t.Fatalf("round trip changed event %d", i)
			}
		}
	})
}
