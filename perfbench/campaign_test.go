package main

import (
	"errors"
	"testing"
)

// fakeCampaigns returns a campaigner whose repeats yield the given digests
// in order; an empty digest stands for a campaign that errors.
func fakeCampaigns(want string, digests ...string) *campaigner {
	n := 0
	return &campaigner{want: want, run: func() (string, error) {
		d := digests[n]
		n++
		if d == "" {
			return "", errors.New("campaign failed")
		}
		return d, nil
	}}
}

func TestCampaignerChecksDigestsAcrossSlices(t *testing.T) {
	cases := []struct {
		name    string
		want    string
		digests []string
		failed  int
	}{
		{name: "all match the first", digests: []string{"a", "a", "a"}, failed: 0},
		// One repeat per slice, as a paper campaign runs: the third
		// round's repeat must still be checked against the first round's.
		{name: "later round differs", digests: []string{"a", "a", "b"}, failed: 1},
		{name: "second round differs", digests: []string{"a", "b", "a"}, failed: 1},
		{name: "given digest", want: "m", digests: []string{"m", "a", "m"}, failed: 1},
		{name: "error counts and sets nothing", digests: []string{"", "a", "b"}, failed: 2},
	}
	for _, c := range cases {
		cp := fakeCampaigns(c.want, c.digests...)
		for range c.digests {
			// A zero budget runs exactly one repeat.
			if err := cp.slice(0); err != nil {
				t.Fatal(err)
			}
		}
		if cp.failed != c.failed || len(cp.secs) != len(c.digests) || len(cp.mb) != len(c.digests) {
			t.Errorf("%s: failed %d of %d repeats (%d mb), want %d failed",
				c.name, cp.failed, len(cp.secs), len(cp.mb), c.failed)
		}
	}
}
