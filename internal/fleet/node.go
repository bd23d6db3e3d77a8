package fleet

import (
	"sync"
	"time"

	"directload/internal/server"
)

// node is the router's view of one storage server: a lazily dialed
// client. The client redials a broken connection on its next request,
// so a node that went down and came back is reached again with no
// bookkeeping here.
type node struct {
	addr    string // TCP address, also the placement identity
	timeout time.Duration

	mu sync.Mutex
	cl *server.Client
}

// client returns the node's client, dialing on first use. Dialing is
// lazy so a node that is down at construction time degrades the fleet
// instead of failing it; the dial itself runs outside the lock so a
// slow connect never blocks another request to the node.
func (n *node) client() (*server.Client, error) {
	n.mu.Lock()
	cl := n.cl
	n.mu.Unlock()
	if cl != nil {
		return cl, nil
	}
	cl, err := server.Dial(n.addr, server.WithTimeout(n.timeout))
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.cl != nil {
		// Lost the dial race; keep the established client.
		go cl.Close()
		return n.cl, nil
	}
	n.cl = cl
	return cl, nil
}

// close tears down the node's client, if one was ever dialed.
func (n *node) close() error {
	n.mu.Lock()
	cl := n.cl
	n.cl = nil
	n.mu.Unlock()
	if cl == nil {
		return nil
	}
	return cl.Close()
}
