package obs

import (
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
)

// SpanSource exposes a tracer's live spans without obs depending on the
// span package (which depends on obs). internal/obs/span's *Tracer
// implements it.
type SpanSource interface {
	WriteLiveSpans(w io.Writer) error
}

// HandlerOpts configures the observability HTTP surface.
type HandlerOpts struct {
	// Registry backs /metrics; optional.
	Registry *Registry
	// Log backs /events; optional. When both Registry and Log are set,
	// ring drops are mirrored into the registry's events_dropped
	// counter.
	Log *Log
	// Spans backs /spans (live span dump); optional — without it the
	// endpoint serves an empty array.
	Spans SpanSource
	// Pprof registers the net/http/pprof handlers under /debug/pprof/.
	// Opt-in: profiles expose stacks and heap contents, so they only
	// ride the listener when the operator asked (the -pprof flag).
	Pprof bool
}

// NewHandler serves the observability surface:
//
//	GET /metrics               expvar-style JSON snapshot of the registry
//	GET /events?n=100          JSONL tail of the most recent events
//	GET /events?since=42       JSONL of events with seq > 42 (resume);
//	                           X-Events-Dropped reports the gap
//	GET /spans                 JSON array of currently live spans
//
// Every option may be left unset; the corresponding endpoint then
// serves an empty snapshot, tail or span array.
func NewHandler(opts HandlerOpts) http.Handler {
	reg, log := opts.Registry, opts.Log
	if reg != nil && log != nil {
		log.SetDropCounter(reg.Counter("events_dropped"))
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = reg.WriteJSON(w)
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		n := 100
		if q := r.URL.Query().Get("n"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v < 0 {
				http.Error(w, "bad n", http.StatusBadRequest)
				return
			}
			n = v
		}
		var lines [][]byte
		if q := r.URL.Query().Get("since"); q != "" {
			since, err := strconv.ParseUint(q, 10, 64)
			if err != nil {
				http.Error(w, "bad since", http.StatusBadRequest)
				return
			}
			// since mode resumes a stream: no implicit 100-line cap
			// unless the caller also bounded with n.
			limit := 0
			if r.URL.Query().Get("n") != "" {
				limit = n
			}
			var missed uint64
			lines, missed = log.TailSince(since, limit)
			w.Header().Set("X-Events-Dropped", strconv.FormatUint(missed, 10))
		} else {
			lines = log.Tail(n)
		}
		w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
		for _, line := range lines {
			if _, err := w.Write(line); err != nil {
				return
			}
		}
	})
	mux.HandleFunc("/spans", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if opts.Spans == nil {
			_, _ = io.WriteString(w, "[]\n")
			return
		}
		_ = opts.Spans.WriteLiveSpans(w)
	})
	if opts.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// HTTPServer is a running observability endpoint.
type HTTPServer struct {
	ln  net.Listener
	srv *http.Server
	log *Log
}

// Serve starts the observability endpoint on addr (e.g. ":9632") and
// returns once it is listening. Close the returned server to stop it.
func Serve(addr string, opts HandlerOpts) (*HTTPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &HTTPServer{ln: ln, srv: &http.Server{Handler: NewHandler(opts)}, log: opts.Log}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the listening address.
func (s *HTTPServer) Addr() string { return s.ln.Addr().String() }

// Close stops the endpoint and flushes the event log it was serving, so
// a process shutting its observability surface down does not strand the
// tail of a buffered event file.
func (s *HTTPServer) Close() error {
	err := s.srv.Close()
	if ferr := s.log.Flush(); err == nil {
		err = ferr
	}
	return err
}
