package source

import (
	"context"
	"os"
	"time"
)

// followPollInterval is how often a follow-mode source re-checks the file
// for appended data after reaching EOF.
const followPollInterval = 100 * time.Millisecond

// FromFile builds a source over a log file. Without Config.Follow, Run ends
// at EOF; with it, Run keeps polling for appended data (tail -f) until ctx
// is cancelled, flushing the pending batch at each EOF and holding back a
// trailing partial line until its newline arrives. The path "-" reads
// standard input.
func FromFile(path string, cfg Config) (*Source, error) {
	cfg = cfg.withDefaults()
	if path == "-" {
		return FromReader(os.Stdin, cfg)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	s := &Source{cfg: cfg, desc: "file:" + path}
	decs, err := s.newDecoders(s.decodeWorkers())
	if err != nil {
		f.Close()
		return nil, err
	}
	s.run = func(ctx context.Context, b *batcher) error {
		defer f.Close()
		err := s.pump(ctx, f, decs, b, cfg.Follow)
		if err != nil && !(cfg.Follow && err == ctx.Err()) {
			return err
		}
		// A cancelled follow drains only the decoders' completed state.
		if derr := drain(decs, b); derr != nil {
			return derr
		}
		return err
	}
	return s, nil
}
