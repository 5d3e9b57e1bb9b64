package device

import (
	"fmt"
	"sync/atomic"
	"time"

	"altrun/internal/ids"
	"altrun/internal/mem"
	"altrun/internal/transport"
)

// Network-transparent paged files (§3.1): "files are named sets of
// pages, and thus mechanisms which are used to transparently access
// files over networks [Sandberg 1985: NFS] can be utilized to hide the
// network through the page management abstraction."
//
// A PageServer exports a FileStore's committed contents page by page
// over the transport fabric; a RemoteFile is a client-side window that
// fetches pages on demand and caches them, so repeated reads of the
// same page cost one round trip — the remote fork experiment (E5) uses
// the same idea in bulk. Both are written against transport.Endpoint,
// so the same code serves pages on the simulated cluster and over real
// TCP.

// Wire messages.
type (
	// PageRequest asks for one page of a named file.
	PageRequest struct {
		File  string
		Page  int64
		Reply transport.Addr
	}
	// PageReply carries the page contents (nil Data with OK=false for
	// missing files or out-of-range pages).
	PageReply struct {
		File string
		Page int64
		OK   bool
		Data []byte
	}
)

// Wire registration (gob fallback + binary codec) lives in
// internal/transport/codec, the single registration point shared by
// every fabric.

// PageServer serves a FileStore's pages on an endpoint.
type PageServer struct {
	fs     *FileStore
	ep     transport.Endpoint
	port   string
	handle transport.Handle

	served atomic.Int64
}

// ServePort is the well-known port page servers bind.
const ServePort = "pagesvc"

// NewPageServer starts a page service for fs on ep. Call Shutdown to
// stop it (so simulations can drain).
func NewPageServer(ep transport.Endpoint, fs *FileStore) *PageServer {
	s := &PageServer{fs: fs, ep: ep, port: ServePort}
	inbox := ep.Bind(s.port)
	// Serialization cost per payload byte; on the simulator this is the
	// profile's NetPerByte, on a real transport it is zero (the wire
	// itself is the cost).
	perByte := ep.TransferCost(1) - ep.TransferCost(0)
	s.handle = ep.Spawn(fmt.Sprintf("pagesvc-%v", ep.ID()), func(p transport.Proc) {
		for {
			env, ok := inbox.Recv(p)
			if !ok {
				return
			}
			req, isReq := env.Payload.(PageRequest)
			if !isReq {
				continue
			}
			s.served.Add(1)
			reply := PageReply{File: req.File, Page: req.Page}
			ps := int64(s.fs.store.PageSize())
			buf := make([]byte, ps)
			if err := s.fs.ReadAt(req.File, buf, req.Page*ps); err == nil {
				reply.OK = true
				reply.Data = buf
			}
			// Page transfer cost: latency is added by the link; the
			// per-byte cost is modelled on the server.
			p.Sleep(time.Duration(len(reply.Data)) * perByte)
			ep.Send(req.Reply, reply)
		}
	})
	return s
}

// Served returns how many page requests the server has answered.
func (s *PageServer) Served() int { return int(s.served.Load()) }

// Shutdown stops the server process.
func (s *PageServer) Shutdown() { s.handle.Kill() }

// DefaultFetchTimeout bounds one remote page fetch.
const DefaultFetchTimeout = 5 * time.Second

// RemoteFile is a client-side, page-cached window onto a served file.
// It is used from a single process.
type RemoteFile struct {
	ep           transport.Endpoint
	server       transport.Addr
	name         string
	size         int64
	pageSize     int64
	cache        map[int64][]byte
	port         string
	fetchTimeout time.Duration

	fetches int
	hits    int
}

// OpenRemote opens a window of `size` bytes onto file `name` served at
// node server. pageSize must match the server store's geometry (in the
// paper's single-level store there is one page size system-wide, §3.1).
func OpenRemote(ep transport.Endpoint, server ids.NodeID, name string, size int64, pageSize int) *RemoteFile {
	return &RemoteFile{
		ep:           ep,
		server:       transport.Addr{Node: server, Port: ServePort},
		name:         name,
		size:         size,
		pageSize:     int64(pageSize),
		cache:        make(map[int64][]byte),
		port:         fmt.Sprintf("pagecli/%s/%v", name, ep.ID()),
		fetchTimeout: DefaultFetchTimeout,
	}
}

// SetFetchTimeout overrides the per-fetch timeout (tests on the real
// transport shorten it so partition timeouts don't stall wall-clock).
func (f *RemoteFile) SetFetchTimeout(d time.Duration) { f.fetchTimeout = d }

// Fetches returns the number of remote page fetches performed.
func (f *RemoteFile) Fetches() int { return f.fetches }

// Hits returns the number of reads satisfied from the page cache.
func (f *RemoteFile) Hits() int { return f.hits }

func (f *RemoteFile) fetchPage(p transport.Proc, pageNo int64) ([]byte, error) {
	if data, ok := f.cache[pageNo]; ok {
		f.hits++
		return data, nil
	}
	inbox := f.ep.Bind(f.port)
	f.ep.Send(f.server, PageRequest{
		File:  f.name,
		Page:  pageNo,
		Reply: transport.Addr{Node: f.ep.ID(), Port: f.port},
	})
	for {
		env, ok := inbox.RecvTimeout(p, f.fetchTimeout)
		if !ok {
			return nil, fmt.Errorf("device: page fetch %s/%d timed out", f.name, pageNo)
		}
		reply, isReply := env.Payload.(PageReply)
		if !isReply || reply.File != f.name || reply.Page != pageNo {
			continue // stale reply from an earlier fetch
		}
		if !reply.OK {
			return nil, fmt.Errorf("device: no page %s/%d on server", f.name, pageNo)
		}
		f.fetches++
		f.cache[pageNo] = reply.Data
		return reply.Data, nil
	}
}

// ReadAt fills buf from the remote file, fetching missing pages over
// the network. The page size is the server store's; the caller's
// offsets are plain byte offsets — the network is hidden behind the
// page abstraction.
func (f *RemoteFile) ReadAt(p transport.Proc, buf []byte, off int64) error {
	if off < 0 || off+int64(len(buf)) > f.size {
		return fmt.Errorf("%w: [%d,%d) of %d", mem.ErrOutOfRange, off, off+int64(len(buf)), f.size)
	}
	ps := f.pageSize
	for len(buf) > 0 {
		pageNo := off / ps
		data, err := f.fetchPage(p, pageNo)
		if err != nil {
			return err
		}
		po := off % ps
		n := ps - po
		if int64(len(buf)) < n {
			n = int64(len(buf))
		}
		copy(buf[:n], data[po:po+n])
		buf = buf[n:]
		off += n
	}
	return nil
}

// Invalidate drops the page cache (e.g., after the server's contents
// were re-committed).
func (f *RemoteFile) Invalidate() {
	f.cache = make(map[int64][]byte)
}
