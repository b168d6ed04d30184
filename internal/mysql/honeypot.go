package mysql

import (
	"bufio"
	"context"
	"errors"
	"io"
	"math/rand"
	"net"

	"decoydb/internal/core"
)

// Honeypot is the low-interaction MySQL honeypot: greet, harvest
// credentials (switching the client to cleartext auth when possible), deny.
type Honeypot struct {
	// Version overrides the advertised server version when non-empty.
	Version string
}

// New returns a MySQL honeypot.
func New() *Honeypot { return &Honeypot{Version: ServerVersion} }

// MariaDBVersion is the banner a MariaDB-flavoured instance advertises.
const MariaDBVersion = "5.5.5-10.6.12-MariaDB"

// NewMariaDB returns a MariaDB-flavoured honeypot. MariaDB speaks the
// same client/server protocol; only the greeting banner differs, which
// is exactly what scanners fingerprint on.
func NewMariaDB() *Honeypot { return &Honeypot{Version: MariaDBVersion} }

// Handler returns a core.Handler bound to this honeypot.
func (h *Honeypot) Handler() core.Handler {
	return core.HandlerFunc(h.HandleConn)
}

// HandleConn serves one client connection.
func (h *Honeypot) HandleConn(ctx context.Context, conn net.Conn, s *core.Session) error {
	s.Connect()
	br := bufio.NewReaderSize(conn, 4096)
	bw := bufio.NewWriterSize(conn, 4096)

	hs := Handshake{Version: h.Version, ThreadID: 100 + uint32(rand.Int31n(1<<20)), AuthPlugin: "mysql_native_password"}
	for i := range hs.Salt {
		hs.Salt[i] = byte(33 + rand.Intn(94))
	}
	if err := WritePacket(bw, Packet{Seq: 0, Payload: hs.Encode()}); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}

	pkt, err := ReadPacket(br)
	if err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil // banner-grab scan: connect, read greeting, leave
		}
		return err
	}
	lr, err := ParseLoginRequest(pkt.Payload)
	if err != nil {
		s.Command("MALFORMED-LOGIN", HexAuth(pkt.Payload))
		return h.deny(bw, pkt.Seq+1, "unknown")
	}

	pass := ""
	if lr.Capabilities&CapPluginAuth != 0 {
		// Switch the client to cleartext so we capture the password, not
		// the scramble. Compliant clients answer with the raw password.
		req := AuthSwitchRequest("mysql_clear_password", nil)
		if err := WritePacket(bw, Packet{Seq: pkt.Seq + 1, Payload: req}); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		resp, err := ReadPacket(br)
		if err == nil {
			p := resp.Payload
			for len(p) > 0 && p[len(p)-1] == 0 {
				p = p[:len(p)-1]
			}
			pass = string(p)
			s.Login(lr.User, pass, false)
			return h.deny(bw, resp.Seq+1, lr.User)
		}
		// Client bailed on the auth switch; log the scramble instead.
		s.Login(lr.User, HexAuth(lr.AuthData), false)
		return nil
	}
	s.Login(lr.User, HexAuth(lr.AuthData), false)
	return h.deny(bw, pkt.Seq+1, lr.User)
}

func (h *Honeypot) deny(bw *bufio.Writer, seq byte, user string) error {
	msg := "Access denied for user '" + user + "'@'client' (using password: YES)"
	if err := WritePacket(bw, Packet{Seq: seq, Payload: ErrPacket(1045, "28000", msg)}); err != nil {
		return err
	}
	return bw.Flush()
}
