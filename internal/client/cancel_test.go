package client

import (
	"context"
	"errors"
	"testing"
	"time"

	"htap/internal/wire"
)

// TestCanceledReplyFollowsCallerContext pins how a CodeCanceled reply
// reaches the caller. The server sends that one code for a cancelled
// request and for one past its deadline, so when the server notices
// first the client must still report its own context's error — else
// errors.Is(err, context.DeadlineExceeded) depends on which side won the
// race. A caller whose context is not done keeps the wire error.
func TestCanceledReplyFollowsCallerContext(t *testing.T) {
	reply := wire.EncodeError(nil, &wire.Error{Code: wire.CodeCanceled, Msg: "context deadline exceeded"})
	deadline, cancelDeadline := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelDeadline()
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		ctx  context.Context
		want error
	}{
		{"done-by-deadline", deadline, context.DeadlineExceeded},
		{"done-by-cancel", canceled, context.Canceled},
		{"deadline-passed-timer-pending", pastDeadline{context.Background()}, context.DeadlineExceeded},
		{"not-done", context.Background(), nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, _, streamErr := readStream(tc.ctx, &conn{}, wire.MsgError, reply)
			for _, err := range []error{streamErr, expectOK(tc.ctx, wire.MsgError, reply)} {
				if tc.want != nil {
					if !errors.Is(err, tc.want) {
						t.Fatalf("err = %v, want %v", err, tc.want)
					}
					continue
				}
				var we *wire.Error
				if !errors.As(err, &we) || we.Code != wire.CodeCanceled {
					t.Fatalf("err = %v, want the wire error (code %d)", err, wire.CodeCanceled)
				}
				if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("err = %v reads as a context error with the context still live", err)
				}
			}
		})
	}
}

// pastDeadline is a context whose deadline has passed by the clock but
// whose timer has not fired yet: Err is still nil. A server that noticed
// the deadline first replies CodeCanceled into exactly this window.
type pastDeadline struct{ context.Context }

func (pastDeadline) Deadline() (time.Time, bool) { return time.Now().Add(-time.Millisecond), true }
