package figures

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"
	"time"
)

// TestGoldenParity pins the rendered sweep outputs byte-for-byte at fixed
// seeds. The hashes were recorded from the hand-wired per-backend control
// loops immediately before the estimate→policy tick moved into
// internal/engine; the engine rebase (and any future refactor of the tick)
// must reproduce them exactly — same estimates, same toggler decisions,
// same degraded-tick routing, same rendered tables. Run with
// E2E_GOLDEN_PRINT=1 to print the current hashes instead of asserting.
func TestGoldenParity(t *testing.T) {
	skipIfShort(t)
	cal := DefaultCalib()
	const dur = 150 * time.Millisecond

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
				WriteFig2(w, Fig2(cal, dur, 11))
			},
		},
		{
			name: "fig4a",
			want: "a0126b6ede64a04172a97c7e5b64163112bd4dd445e61479ed97a57b9d3fb683",
			render: func(w *bytes.Buffer) {
				WriteFig4(w, Fig4a(cal, []float64{5000, 50000, 85000}, dur, 7))
			},
		},
		{
			name: "toggle",
			want: "5e6fb1b731a97e03ab19a5194f50550e76e52f71e95204389e6182bd51c89392",
			render: func(w *bytes.Buffer) {
				WriteToggle(w, Toggle(cal, []float64{50000}, 200*time.Millisecond, 7))
			},
		},
		{
			name: "aimd",
			want: "eb2c2e994bb45024896202b0c30f40a0bfa972cb4b2c5845100208ed893ca0c0",
			render: func(w *bytes.Buffer) {
				WriteAIMD(w, AIMD(cal, []float64{60000}, 200*time.Millisecond, 7))
			},
		},
		{
			name: "exchange",
			want: "4f85d80e2615026bfdf3ecbe3fdb9a2f24d3f0fab25e1a0ea3e7fc24d225caca",
			render: func(w *bytes.Buffer) {
				WriteExchangeAblation(w, ExchangeAblation(cal, 30000, []time.Duration{0, 5 * time.Millisecond}, dur, 7))
			},
		},
		{
			name: "faults",
			want: "6910b15879572825730c66210653385ca0f7000782b8af5e73a6f22929f71052",
			render: func(w *bytes.Buffer) {
				WriteFaultSweep(w, FaultSweep(cal, 30000, []float64{0, 0.02}, "combo", dur, 7))
			},
		},
		{
			name: "bandits",
			want: "b55130506b479600c1db21f14db3a0d4d31ba399f6eced427511608d24ab3b1e",
			render: func(w *bytes.Buffer) {
				WritePolicyCompare(w, PolicyCompare(cal, []float64{10000, 45000, 60000}, dur, 7))
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
