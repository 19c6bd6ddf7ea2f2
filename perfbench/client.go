package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"ealb/internal/engine"
	"ealb/internal/serve"
	"ealb/internal/store"
)

// instance is one in-process service: engine pool, counted store,
// server and loopback listener, plus the client that drives it.
type instance struct {
	pool    *engine.Pool
	store   *countStore
	srv     *serve.Server
	httpSrv *http.Server
	served  chan struct{}
	client  *http.Client
	base    string
	dir     string // disk store directory; "" for the memory store
}

// start builds a fresh service the way ealb-serve does: pool, store,
// NewWith, Recover and a loopback listener. tmp is where a disk store
// directory is created.
func start(w workload, tmp string) (*instance, error) {
	inst := &instance{pool: engine.NewPool(0)}
	var inner store.RunStore = store.NewMemory()
	if w.disk {
		if err := os.MkdirAll(tmp, 0o755); err != nil {
			return nil, err
		}
		spreadDirs(tmp)
		dir, err := os.MkdirTemp(tmp, w.name+"-")
		if err != nil {
			return nil, err
		}
		inst.dir = dir
		d, err := store.OpenDisk(dir)
		if err != nil {
			os.RemoveAll(dir)
			return nil, fmt.Errorf("open disk store: %w", err)
		}
		inner = d
	}
	inst.store = newCountStore(inner)
	inst.srv = serve.NewWith(inst.pool, serve.Options{Store: inst.store})
	if err := inst.srv.Recover(context.Background()); err != nil {
		inst.store.Close()
		os.RemoveAll(inst.dir)
		return nil, fmt.Errorf("recover: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		inst.store.Close()
		os.RemoveAll(inst.dir)
		return nil, err
	}
	inst.base = "http://" + ln.Addr().String()
	inst.httpSrv = &http.Server{Handler: inst.srv.Handler()}
	inst.served = make(chan struct{})
	go func() {
		defer close(inst.served)
		inst.httpSrv.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	inst.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     w.clients,
		MaxIdleConnsPerHost: w.clients,
		DisableCompression:  true,
	}}
	return inst, nil
}

// stop shuts the service down and waits for its goroutines, then
// closes the store and removes its directory.
func (inst *instance) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	inst.client.CloseIdleConnections()
	err := inst.httpSrv.Shutdown(ctx)
	<-inst.served
	if serr := inst.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	if cerr := inst.store.Close(); err == nil {
		err = cerr
	}
	if inst.dir != "" {
		if rerr := os.RemoveAll(inst.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// Linux inode flag ioctls and ext4's "top directory" flag (chattr +T).
const (
	fsIocGetflags = 0x80086601
	fsIocSetflags = 0x40086602
	fsTopdirFl    = 0x00020000
)

// spreadDirs marks dir so that ext4 places each directory created in it
// in a block group of its own, as it does for directories at the root.
// Otherwise each run's store lands in the group of the previous runs,
// whose thousands of recently freed inodes (run.json rewrites replace
// the file each time) made file creation there several times slower for
// minutes, so a run's speed depended on the runs before it. Filesystems
// without the flag reject the ioctl, which is harmless.
func spreadDirs(dir string) {
	f, err := os.Open(dir)
	if err != nil {
		return
	}
	defer f.Close()
	var flags int32
	if _, _, e := syscall.Syscall(syscall.SYS_IOCTL, f.Fd(), fsIocGetflags, uintptr(unsafe.Pointer(&flags))); e != 0 {
		return
	}
	flags |= fsTopdirFl
	syscall.Syscall(syscall.SYS_IOCTL, f.Fd(), fsIocSetflags, uintptr(unsafe.Pointer(&flags)))
}

// httpCall is one request of an op, timed on the client.
type httpCall struct {
	route      string
	start, end time.Time
	status     int
	bytes      int
}

// opResult is everything the benchmark keeps about one op. Outputs are
// kept as digests so client state does not inflate the heap metrics.
type opResult struct {
	op         int64
	body       string
	start, end time.Time
	calls      []httpCall
	runID      string
	status     string // the run's status in the POST answer
	err        error  // transport or protocol failure
	non2xx     int
	cells      [32]byte // digest of the per-cell result JSON in the POST answer
	getRun     [32]byte // the same digest from GET /v1/runs/{id}
	intervals  [32]byte // digest of the GET /intervals body
	trace      [32]byte // digest of the GET /trace body
	traceLines int
}

func (r *opResult) latency() time.Duration { return r.end.Sub(r.start) }

// ok reports whether every request answered 2xx and the run finished.
func (r *opResult) ok() bool { return r.err == nil && r.non2xx == 0 && r.status == serve.StatusDone }

func (r *opResult) readTime() time.Duration {
	var d time.Duration
	for _, c := range r.calls[1:] {
		d += c.end.Sub(c.start)
	}
	return d
}

func (r *opResult) readBytes() int {
	n := 0
	for _, c := range r.calls[1:] {
		n += c.bytes
	}
	return n
}

// runDoc is the part of a run answer the checks read.
type runDoc struct {
	ID     string          `json:"id"`
	Status string          `json:"status"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
	Sweep  *struct {
		Cells []json.RawMessage `json:"cells"`
	} `json:"sweep"`
}

// cellsDigest hashes a run's per-cell results in compact JSON, one line
// per cell — the bytes json.Marshal gives for each engine.Result.
func (d *runDoc) cellsDigest() ([32]byte, error) {
	cells := []json.RawMessage{d.Result}
	if d.Sweep != nil {
		cells = d.Sweep.Cells
	}
	h := sha256.New()
	var buf bytes.Buffer
	for _, c := range cells {
		buf.Reset()
		if err := json.Compact(&buf, c); err != nil {
			return [32]byte{}, err
		}
		buf.WriteByte('\n')
		h.Write(buf.Bytes())
	}
	var sum [32]byte
	h.Sum(sum[:0])
	return sum, nil
}

// do issues one request and reads its whole answer.
func (inst *instance) do(method, path, route string, body string) (httpCall, []byte, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, inst.base+path, rd)
	if err != nil {
		return httpCall{}, nil, err
	}
	c := httpCall{route: route, start: time.Now()}
	resp, err := inst.client.Do(req)
	if err != nil {
		return c, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.end = time.Now()
	c.status = resp.StatusCode
	c.bytes = len(data)
	return c, data, err
}

// runOp executes one op and digests its outputs after its clock stops.
// The POST answer is decoded inside the op only when a read needs the
// run ID, as a real client would.
func (inst *instance) runOp(w workload, seed uint64, op int64) opResult {
	r := opResult{op: op, body: w.body(seed, op)}
	r.start = time.Now()
	var (
		doc    runDoc
		parsed bool
		raws   [][]byte
	)
	call, data, err := inst.do(http.MethodPost, "/v1/runs?wait=1", routePost, r.body)
	r.calls = append(r.calls, call)
	if err == nil && call.status/100 == 2 && len(w.reads) > 0 {
		if err = json.Unmarshal(data, &doc); err == nil {
			parsed = true
			for _, k := range w.reads {
				call, raw, rerr := inst.do(http.MethodGet, k.path(doc.ID), k.route(), "")
				r.calls = append(r.calls, call)
				raws = append(raws, raw)
				if rerr != nil {
					err = rerr
					break
				}
			}
		}
	}
	r.end = time.Now()
	r.err = err
	if err == nil && call.status/100 == 2 && !parsed {
		r.err = json.Unmarshal(data, &doc)
	}
	r.runID, r.status = doc.ID, doc.Status
	if r.err == nil {
		r.cells, r.err = doc.cellsDigest()
	}
	for i, c := range r.calls {
		if c.status/100 != 2 {
			r.non2xx++
			if r.err == nil {
				r.err = fmt.Errorf("%s answered %d", c.route, c.status)
			}
			continue
		}
		if i == 0 {
			continue
		}
		raw := raws[i-1]
		switch w.reads[i-1] {
		case readRun:
			var got runDoc
			derr := json.Unmarshal(raw, &got)
			if derr == nil {
				r.getRun, derr = got.cellsDigest()
			}
			r.err = errors.Join(r.err, derr)
		case readIntervals:
			r.intervals = sha256.Sum256(raw)
		case readTrace:
			r.trace = sha256.Sum256(raw)
			r.traceLines = bytes.Count(raw, []byte{'\n'})
		}
	}
	return r
}

// loop runs the workload's closed-loop clients against inst until the
// deadline; the op in flight at the deadline completes. next hands out
// op indices, so bodies stay distinct across windows.
func (inst *instance) loop(w workload, seed uint64, next func() int64, deadline time.Time) []opResult {
	var (
		mu  sync.Mutex
		all []opResult
		wg  sync.WaitGroup
	)
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []opResult
			for time.Now().Before(deadline) {
				mine = append(mine, inst.runOp(w, seed, next()))
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	sortOps(all)
	return all
}
