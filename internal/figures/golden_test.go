package figures

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"
	"time"
)

// TestGoldenParity pins the rendered output of every e2efig figure
// byte-for-byte at fixed seeds, one subtest per figure (a reduced grid where
// the full one is slow). A refactor of the control loop, the simulator or a
// table must reproduce every hash; EXPERIMENTS.md's claims ledger names the
// subtest that pins each figure. Run with E2E_GOLDEN_PRINT=1 to print the
// current hashes instead of asserting.
func TestGoldenParity(t *testing.T) {
	skipIfShort(t)
	cal := DefaultCalib()
	const dur = 150 * time.Millisecond
	p := Params{Calib: cal, Dur: dur, Seed: 7}
	rates := func(r ...float64) Params { q := p; q.Rates = r; return q }

	cases := []struct {
		name   string
		want   string
		render func(w *bytes.Buffer)
	}{
		{
			name: "fig1",
			want: "e2e8116550f3b4d715b65879d091f652715327da43a80f357ab57259a843de6d",
			render: func(w *bytes.Buffer) {
				WriteFig1(w, Fig1())
			},
		},
		{
			name: "fig2",
			want: "d1b16d877c7732a4560c3c18befe2cb002835684384fdbe1083180b263da8f83",
			render: func(w *bytes.Buffer) {
				fig2(Params{Calib: cal, Dur: dur, Seed: 11}).run().Write(w)
			},
		},
		{
			name: "fig4a",
			want: "a0126b6ede64a04172a97c7e5b64163112bd4dd445e61479ed97a57b9d3fb683",
			render: func(w *bytes.Buffer) {
				fig4a(rates(5000, 50000, 85000)).run().Write(w)
			},
		},
		{
			name: "fig4b",
			want: "02fb2fbc54af4d5fe910f03ab5c4550b428b19fd47821398c44a5160e8e7d4b4",
			render: func(w *bytes.Buffer) {
				fig4b(rates(5000, 50000)).run().Write(w)
			},
		},
		{
			name: "toggle",
			want: "5e6fb1b731a97e03ab19a5194f50550e76e52f71e95204389e6182bd51c89392",
			render: func(w *bytes.Buffer) {
				toggle(Params{Calib: cal, Dur: 200 * time.Millisecond, Seed: 7, Rates: []float64{50000}}).run().Write(w)
			},
		},
		{
			name: "hints",
			want: "0b2b4cd6fab4fd0878c2d31b9d3ce6d4ed6627064e9bd4b4b3e470b34e4b99c8",
			render: func(w *bytes.Buffer) {
				hintsSweep(Params{Calib: cal, Dur: dur, Seed: 7, Rates: []float64{10000}, SyscallBatch: 4}).run().Write(w)
			},
		},
		{
			name: "aimd",
			want: "eb2c2e994bb45024896202b0c30f40a0bfa972cb4b2c5845100208ed893ca0c0",
			render: func(w *bytes.Buffer) {
				aimdSweep(Params{Calib: cal, Dur: 200 * time.Millisecond, Seed: 7, Rates: []float64{60000}}).run().Write(w)
			},
		},
		{
			name: "tick",
			want: "631b26a61b1a1cec15f0b69c95f67e630fe98784092483510c0799dde29826be",
			render: func(w *bytes.Buffer) {
				tick(p, 50000, []time.Duration{time.Millisecond, 20 * time.Millisecond}).run().Write(w)
			},
		},
		{
			name: "exchange",
			want: "4f85d80e2615026bfdf3ecbe3fdb9a2f24d3f0fab25e1a0ea3e7fc24d225caca",
			render: func(w *bytes.Buffer) {
				exchange(p, 30000, []time.Duration{0, 5 * time.Millisecond}).run().Write(w)
			},
		},
		{
			name: "multiconn",
			want: "b0ef5b24ce917093ce59fdb7045d61130318baddb38eeabe67a7d28abebc1d64",
			render: func(w *bytes.Buffer) {
				multiConn(p, 4, 50000).run().Write(w)
			},
		},
		{
			name: "cscan",
			want: "0f2d371cf153dc065f5dc168fb2a6a3feb42ea63d840491987d4237ec784a6fc",
			render: func(w *bytes.Buffer) {
				cscan(p, []float64{1, 1.5}).run().Write(w)
			},
		},
		{
			name: "loss",
			want: "851f0de123621f65c1f95d829bfc702513903931a0a4a41e277c74f8c4a5fccc",
			render: func(w *bytes.Buffer) {
				loss(p, 20000, []float64{0, 0.01}).run().Write(w)
			},
		},
		{
			name: "faults",
			want: "6910b15879572825730c66210653385ca0f7000782b8af5e73a6f22929f71052",
			render: func(w *bytes.Buffer) {
				faultSweep(Params{Calib: cal, Dur: dur, Seed: 7, FaultPlan: "combo"}, 30000, []float64{0, 0.02}).run().Write(w)
			},
		},
		{
			name: "bandits",
			want: "b55130506b479600c1db21f14db3a0d4d31ba399f6eced427511608d24ab3b1e",
			render: func(w *bytes.Buffer) {
				bandits(p, []float64{10000, 45000, 60000}).run().Write(w)
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			tc.render(&buf)
			sum := sha256.Sum256(buf.Bytes())
			got := hex.EncodeToString(sum[:])
			if os.Getenv("E2E_GOLDEN_PRINT") != "" {
				t.Logf("golden %s: %s", tc.name, got)
				return
			}
			if got != tc.want {
				t.Errorf("%s output drifted from the pre-refactor loop:\nhash %s, want %s\noutput:\n%s",
					tc.name, got, tc.want, buf.String())
			}
		})
	}
}
