package prisimclient

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"prisim"
)

// Sentinel errors matched (via errors.Is) by the *APIError values Client
// methods return for the corresponding HTTP statuses.
var (
	// ErrQueueFull matches 429 responses: the server's job queue is at
	// capacity and suggests a retry delay via Retry-After.
	ErrQueueFull = errors.New("job queue full")
	// ErrJobNotFound matches 404 responses: the server does not remember
	// the requested job (or matrix/worker) ID.
	ErrJobNotFound = errors.New("no such job")
	// ErrCacheKeyMismatch matches 409 responses to submits that carried a
	// client-computed CacheKey the server disagrees with — almost always
	// kernel-version skew between client and server builds.
	ErrCacheKeyMismatch = errors.New("cache key mismatch")
	// ErrAssembly matches 422 responses: a submitted program failed to
	// assemble, or the priscan static analysis found a provable error
	// (e.g. a store whose every possible address lies outside the program
	// image). The *APIError carries every positioned diagnostic the
	// frontend collected in Diagnostics; analysis findings additionally
	// fill the Analyzer and Severity fields.
	ErrAssembly = errors.New("program failed to assemble")
)

// APIError is a non-2xx response from the service.
type APIError struct {
	StatusCode int
	Message    string
	RetryAfter time.Duration // from Retry-After on 429/503, else 0
	// Diagnostics carries the positioned assembly errors of a 422 response
	// to a program submission or check; empty otherwise.
	Diagnostics []Diagnostic
}

func (e *APIError) Error() string {
	return fmt.Sprintf("prisimd: %s (HTTP %d)", e.Message, e.StatusCode)
}

// Is maps HTTP statuses onto the package sentinels: errors.Is(err,
// ErrQueueFull) matches 429s, ErrJobNotFound matches 404s, and
// ErrCacheKeyMismatch matches 409s whose message names a cache key.
func (e *APIError) Is(target error) bool {
	switch target {
	case ErrQueueFull:
		return e.StatusCode == http.StatusTooManyRequests
	case ErrJobNotFound:
		return e.StatusCode == http.StatusNotFound
	case ErrCacheKeyMismatch:
		return e.StatusCode == http.StatusConflict && strings.Contains(e.Message, "cache key")
	case ErrAssembly:
		return e.StatusCode == http.StatusUnprocessableEntity
	}
	return false
}

// DefaultBasePath is where the versioned v1 API lives on a prisimd server.
const DefaultBasePath = "/api/v1"

// Client talks to one prisimd server. The zero value is not usable; create
// one with NewClient. A Client is safe for concurrent use.
type Client struct {
	base      string
	basePath  string
	hc        *http.Client
	auth      string // Authorization header value, "" = none
	userAgent string
}

// Option configures a Client built by NewClient.
type Option func(*Client)

// WithHTTPClient selects the *http.Client used for every request (nil
// keeps http.DefaultClient).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) {
		if hc != nil {
			c.hc = hc
		}
	}
}

// WithBasePath overrides the API base path mounted under the server URL.
// The default is DefaultBasePath ("/api/v1").
func WithBasePath(p string) Option {
	return func(c *Client) { c.basePath = strings.TrimRight(p, "/") }
}

// WithAuthHeader sets the Authorization header sent with every request,
// e.g. WithAuthHeader("Bearer " + token). Empty disables it.
func WithAuthHeader(value string) Option {
	return func(c *Client) { c.auth = value }
}

// WithUserAgent overrides the User-Agent header (default
// "prisimclient/<version>").
func WithUserAgent(ua string) Option {
	return func(c *Client) { c.userAgent = ua }
}

// NewClient returns a Client for the server at baseURL (e.g.
// "http://localhost:8064") with the options applied.
func NewClient(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:      strings.TrimRight(baseURL, "/"),
		basePath:  DefaultBasePath,
		hc:        http.DefaultClient,
		userAgent: "prisimclient/" + prisim.Version,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// url joins the server URL, the API base path, and an endpoint path.
func (c *Client) url(path string) string { return c.base + c.basePath + path }

// newRequest builds a request with the client's standing headers applied.
func (c *Client) newRequest(ctx context.Context, method, url string, rd io.Reader) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	if c.userAgent != "" {
		req.Header.Set("User-Agent", c.userAgent)
	}
	if c.auth != "" {
		req.Header.Set("Authorization", c.auth)
	}
	return req, nil
}

// do issues one request against the API base path and decodes a JSON
// response into out (out nil discards the body). Non-2xx responses decode
// into *APIError.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	req, err := c.newRequest(ctx, method, c.url(path), rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeError(resp)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// decodeError turns a non-2xx response into an *APIError.
func decodeError(resp *http.Response) error {
	apiErr := &APIError{StatusCode: resp.StatusCode}
	var body apiError
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&body); err == nil && body.Error != "" {
		apiErr.Message = body.Error
		apiErr.Diagnostics = body.Diagnostics
	} else {
		apiErr.Message = http.StatusText(resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		var secs int
		if _, err := fmt.Sscanf(ra, "%d", &secs); err == nil {
			apiErr.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return apiErr
}

// Submit enqueues a job and returns its accepted view (state queued).
// A full queue surfaces as an error matching errors.Is(err, ErrQueueFull)
// whose *APIError carries the server's suggested RetryAfter.
func (c *Client) Submit(ctx context.Context, req JobRequest) (*Job, error) {
	var j Job
	if err := c.do(ctx, http.MethodPost, "/jobs", req, &j); err != nil {
		return nil, err
	}
	return &j, nil
}

// SubmitProgram enqueues a program job: src is PRISC-64 assembly text the
// server assembles and runs under its sandbox limits, with the machine
// parameters and budget taken from opts (Kind and Source are overwritten).
// Assembly failures surface as an error matching errors.Is(err,
// ErrAssembly) whose *APIError carries the positioned diagnostics.
func (c *Client) SubmitProgram(ctx context.Context, src []byte, opts JobRequest) (*Job, error) {
	opts.Kind = KindProgram
	opts.Source = src
	return c.Submit(ctx, opts)
}

// CheckProgram assembles src on the server without running it, returning
// the assembled image's identity. Assembly failures surface as an error
// matching errors.Is(err, ErrAssembly) whose *APIError carries the
// positioned diagnostics.
func (c *Client) CheckProgram(ctx context.Context, src []byte) (*ProgramInfo, error) {
	var info ProgramInfo
	if err := c.do(ctx, http.MethodPost, "/programs", ProgramCheckRequest{Source: src}, &info); err != nil {
		return nil, err
	}
	return &info, nil
}

// Job fetches one job's current state.
func (c *Client) Job(ctx context.Context, id string) (*Job, error) {
	var j Job
	if err := c.do(ctx, http.MethodGet, "/jobs/"+id, nil, &j); err != nil {
		return nil, err
	}
	return &j, nil
}

// Jobs lists every job the server still remembers, oldest first.
func (c *Client) Jobs(ctx context.Context) ([]Job, error) {
	var js []Job
	if err := c.do(ctx, http.MethodGet, "/jobs", nil, &js); err != nil {
		return nil, err
	}
	return js, nil
}

// Result fetches a finished job's result. It fails with an *APIError
// (409) while the job is still queued or running.
func (c *Client) Result(ctx context.Context, id string) (*JobResult, error) {
	var r JobResult
	if err := c.do(ctx, http.MethodGet, "/jobs/"+id+"/result", nil, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// Cancel requests cancellation of a queued or running job and returns the
// job's view. Cancelling a terminal job is a no-op.
func (c *Client) Cancel(ctx context.Context, id string) (*Job, error) {
	var j Job
	if err := c.do(ctx, http.MethodDelete, "/jobs/"+id, nil, &j); err != nil {
		return nil, err
	}
	return &j, nil
}

// Benchmarks lists the server's workload names.
func (c *Client) Benchmarks(ctx context.Context) ([]string, error) {
	var names []string
	err := c.do(ctx, http.MethodGet, "/benchmarks", nil, &names)
	return names, err
}

// Experiments lists the server's experiment names.
func (c *Client) Experiments(ctx context.Context) ([]string, error) {
	var names []string
	err := c.do(ctx, http.MethodGet, "/experiments", nil, &names)
	return names, err
}

// Version reports the server's build version.
func (c *Client) Version(ctx context.Context) (string, error) {
	var v struct {
		Version string `json:"version"`
	}
	err := c.do(ctx, http.MethodGet, "/version", nil, &v)
	return v.Version, err
}

// Metrics fetches the raw Prometheus-format metrics page.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := c.newRequest(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", decodeError(resp)
	}
	data, err := io.ReadAll(resp.Body)
	return string(data), err
}

// Stream subscribes to a job's SSE event feed and calls fn for every event
// until the job reaches a terminal state, ctx is cancelled, or the
// connection drops. It returns the job's final event when the stream ended
// because the job finished.
func (c *Client) Stream(ctx context.Context, id string, fn func(Event)) (*Event, error) {
	req, err := c.newRequest(ctx, http.MethodGet, c.url("/jobs/"+id+"/events"), nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var data []byte
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "data:"):
			data = append(data, strings.TrimSpace(strings.TrimPrefix(line, "data:"))...)
		case line == "" && len(data) > 0:
			var ev Event
			if err := json.Unmarshal(data, &ev); err != nil {
				return nil, fmt.Errorf("prisimd: bad event payload: %w", err)
			}
			data = data[:0]
			if fn != nil {
				fn(ev)
			}
			if ev.Type == "state" && ev.State.Terminal() {
				return &ev, nil
			}
		default:
			// comments (heartbeats) and event: lines need no handling;
			// the payload type rides inside the JSON.
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, io.ErrUnexpectedEOF
}

// Wait blocks until the job reaches a terminal state and returns its final
// view. It prefers the SSE stream — one long-lived connection instead of a
// poll loop — and falls back to polling every pollEvery (0 selects 200ms)
// only when streaming is unavailable (proxy stripped the stream, server
// without SSE). A job the server does not remember fails fast with an error
// matching errors.Is(err, ErrJobNotFound) instead of entering the poll
// loop.
func (c *Client) Wait(ctx context.Context, id string, pollEvery time.Duration) (*Job, error) {
	if _, err := c.Stream(ctx, id, nil); err == nil {
		return c.Job(ctx, id)
	} else if ctx.Err() != nil {
		return nil, ctx.Err()
	} else if errors.Is(err, ErrJobNotFound) {
		return nil, err
	}
	if pollEvery <= 0 {
		pollEvery = 200 * time.Millisecond
	}
	t := time.NewTicker(pollEvery)
	defer t.Stop()
	for {
		j, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		if j.State.Terminal() {
			return j, nil
		}
		select {
		case <-t.C:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// --- Fabric endpoints (coordinator mode) ---

// SubmitMatrix submits an experiment matrix to a fabric coordinator and
// returns its status view. Matrix identity is content-derived: submitting
// an identical spec — from this or any other client — returns the same
// matrix ID and never recomputes a point that is warm in the coordinator's
// durable store or already in flight.
func (c *Client) SubmitMatrix(ctx context.Context, m Matrix) (*MatrixStatus, error) {
	var st MatrixStatus
	if err := c.do(ctx, http.MethodPost, "/fabric/matrices", m, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// MatrixStatus fetches one matrix's current status.
func (c *Client) MatrixStatus(ctx context.Context, id string) (*MatrixStatus, error) {
	var st MatrixStatus
	if err := c.do(ctx, http.MethodGet, "/fabric/matrices/"+id, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Matrices lists every matrix the coordinator tracks, oldest first.
func (c *Client) Matrices(ctx context.Context) ([]MatrixStatus, error) {
	var sts []MatrixStatus
	if err := c.do(ctx, http.MethodGet, "/fabric/matrices", nil, &sts); err != nil {
		return nil, err
	}
	return sts, nil
}

// MatrixResult fetches a finished matrix's assembled tables and per-point
// results. It fails with an *APIError (409) while the matrix is still
// running.
func (c *Client) MatrixResult(ctx context.Context, id string) (*MatrixResult, error) {
	var r MatrixResult
	if err := c.do(ctx, http.MethodGet, "/fabric/matrices/"+id+"/result", nil, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// WaitMatrix polls until the matrix reaches a terminal state and returns
// its final status. pollEvery 0 selects 200ms.
func (c *Client) WaitMatrix(ctx context.Context, id string, pollEvery time.Duration) (*MatrixStatus, error) {
	if pollEvery <= 0 {
		pollEvery = 200 * time.Millisecond
	}
	t := time.NewTicker(pollEvery)
	defer t.Stop()
	for {
		st, err := c.MatrixStatus(ctx, id)
		if err != nil {
			return nil, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		select {
		case <-t.C:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// RegisterWorker registers a worker daemon (by its externally reachable
// base URL) with a fabric coordinator. Registration probes the worker and
// fails on kernel-version skew; re-registering a known URL refreshes it and
// clears its unhealthy state.
func (c *Client) RegisterWorker(ctx context.Context, url string) (*WorkerInfo, error) {
	var w WorkerInfo
	if err := c.do(ctx, http.MethodPost, "/fabric/workers", RegisterWorkerRequest{URL: url}, &w); err != nil {
		return nil, err
	}
	return &w, nil
}

// Workers lists the coordinator's registered workers.
func (c *Client) Workers(ctx context.Context) ([]WorkerInfo, error) {
	var ws []WorkerInfo
	if err := c.do(ctx, http.MethodGet, "/fabric/workers", nil, &ws); err != nil {
		return nil, err
	}
	return ws, nil
}

// DeregisterWorker removes a worker from the coordinator's pool by ID.
func (c *Client) DeregisterWorker(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/fabric/workers/"+id, nil, nil)
}
