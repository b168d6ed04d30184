// Package mysql implements a low-interaction MySQL honeypot in the style of
// the Qeeqbox MySQL honeypot the paper deployed on port 3306. It performs
// the server side of the MySQL client/server protocol handshake, captures
// credentials, and denies every login.
//
// To capture plaintext passwords (rather than mysql_native_password
// scrambles) the honeypot answers every HandshakeResponse with an
// AuthSwitchRequest for mysql_clear_password — a standard honeypot trick
// that automated brute-force tools overwhelmingly comply with.
package mysql

import (
	"encoding/hex"
	"fmt"
	"io"

	"decoydb/internal/wire"
)

// ServerVersion is the banner version the honeypot advertises.
const ServerVersion = "5.7.29-log"

// Capability flags (subset) from the MySQL protocol.
const (
	CapLongPassword         = 0x00000001
	CapConnectWithDB        = 0x00000008
	CapProtocol41           = 0x00000200
	CapSecureConnection     = 0x00008000
	CapPluginAuth           = 0x00080000
	CapPluginAuthLenencData = 0x00200000
)

// MaxPacket bounds accepted client packet payloads.
const MaxPacket = 1 << 20

// Packet is one MySQL wire packet: a sequence number and payload.
type Packet struct {
	Seq     byte
	Payload []byte
}

// ReadPacket reads one length-prefixed MySQL packet.
func ReadPacket(r io.Reader) (Packet, error) {
	var hdr [4]byte
	if err := wire.ReadFull(r, hdr[:]); err != nil {
		return Packet{}, err
	}
	n := int(hdr[0]) | int(hdr[1])<<8 | int(hdr[2])<<16
	payload, err := wire.ReadN(r, n, MaxPacket)
	if err != nil {
		return Packet{}, err
	}
	return Packet{Seq: hdr[3], Payload: payload}, nil
}

// WritePacket writes one length-prefixed MySQL packet.
func WritePacket(w io.Writer, p Packet) error {
	n := len(p.Payload)
	if n > MaxPacket {
		return wire.ErrFrameTooLarge
	}
	hdr := []byte{byte(n), byte(n >> 8), byte(n >> 16), p.Seq}
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(p.Payload)
	return err
}

// Handshake is the server greeting (HandshakeV10).
type Handshake struct {
	Version    string
	ThreadID   uint32
	Salt       [20]byte
	AuthPlugin string
}

// Encode renders the HandshakeV10 payload.
func (h Handshake) Encode() []byte {
	w := wire.NewWriter(128)
	w.Uint8(0x0a)
	w.CString(h.Version)
	w.Uint32LE(h.ThreadID)
	w.Raw(h.Salt[:8])
	w.Uint8(0)
	caps := uint32(CapLongPassword | CapConnectWithDB | CapProtocol41 |
		CapSecureConnection | CapPluginAuth)
	w.Uint16LE(uint16(caps))
	w.Uint8(0x21)      // charset utf8_general_ci
	w.Uint16LE(0x0002) // status: autocommit
	w.Uint16LE(uint16(caps >> 16))
	w.Uint8(21) // auth plugin data length
	w.Zeros(10)
	w.Raw(h.Salt[8:20])
	w.Uint8(0)
	w.CString(h.AuthPlugin)
	return w.Bytes()
}

// ParseHandshake decodes a HandshakeV10 payload (client side; used by the
// simulator and tests).
func ParseHandshake(payload []byte) (Handshake, error) {
	r := wire.NewReader(payload)
	ver, err := r.Uint8()
	if err != nil || ver != 0x0a {
		return Handshake{}, fmt.Errorf("mysql: bad protocol version")
	}
	var h Handshake
	if h.Version, err = r.CString(); err != nil {
		return Handshake{}, err
	}
	if h.ThreadID, err = r.Uint32LE(); err != nil {
		return Handshake{}, err
	}
	part1, err := r.Bytes(8)
	if err != nil {
		return Handshake{}, err
	}
	copy(h.Salt[:8], part1)
	if err := r.Skip(1 + 2 + 1 + 2 + 2 + 1 + 10); err != nil {
		return Handshake{}, err
	}
	part2, err := r.Bytes(12)
	if err != nil {
		return Handshake{}, err
	}
	copy(h.Salt[8:], part2)
	if err := r.Skip(1); err != nil {
		return Handshake{}, err
	}
	if h.AuthPlugin, err = r.CString(); err != nil {
		// Some servers omit the plugin name; not fatal.
		h.AuthPlugin = ""
	}
	return h, nil
}

// LoginRequest is a parsed HandshakeResponse41.
type LoginRequest struct {
	Capabilities uint32
	MaxPacket    uint32
	Charset      byte
	User         string
	AuthData     []byte
	Database     string
	AuthPlugin   string
}

// ParseLoginRequest decodes a HandshakeResponse41 payload from a client.
func ParseLoginRequest(payload []byte) (LoginRequest, error) {
	r := wire.NewReader(payload)
	var lr LoginRequest
	var err error
	if lr.Capabilities, err = r.Uint32LE(); err != nil {
		return lr, fmt.Errorf("mysql: login request: %w", err)
	}
	if lr.Capabilities&CapProtocol41 == 0 {
		return lr, fmt.Errorf("mysql: pre-4.1 client not supported")
	}
	if lr.MaxPacket, err = r.Uint32LE(); err != nil {
		return lr, err
	}
	if lr.Charset, err = r.Uint8(); err != nil {
		return lr, err
	}
	if err = r.Skip(23); err != nil {
		return lr, err
	}
	if lr.User, err = r.CString(); err != nil {
		return lr, err
	}
	switch {
	case lr.Capabilities&CapPluginAuthLenencData != 0:
		n, err := readLenenc(r)
		if err != nil {
			return lr, err
		}
		if lr.AuthData, err = r.Bytes(int(n)); err != nil {
			return lr, err
		}
	case lr.Capabilities&CapSecureConnection != 0:
		n, err := r.Uint8()
		if err != nil {
			return lr, err
		}
		if lr.AuthData, err = r.Bytes(int(n)); err != nil {
			return lr, err
		}
	default:
		s, err := r.CString()
		if err != nil {
			return lr, err
		}
		lr.AuthData = []byte(s)
	}
	if lr.Capabilities&CapConnectWithDB != 0 && r.Len() > 0 {
		if lr.Database, err = r.CString(); err != nil {
			return lr, err
		}
	}
	if lr.Capabilities&CapPluginAuth != 0 && r.Len() > 0 {
		if lr.AuthPlugin, err = r.CString(); err != nil {
			return lr, err
		}
	}
	return lr, nil
}

// EncodeLoginRequest renders a HandshakeResponse41 (client side).
func EncodeLoginRequest(lr LoginRequest) []byte {
	w := wire.NewWriter(64 + len(lr.User) + len(lr.AuthData))
	caps := lr.Capabilities
	if caps == 0 {
		caps = CapLongPassword | CapProtocol41 | CapSecureConnection | CapPluginAuth
	}
	w.Uint32LE(caps)
	w.Uint32LE(lr.MaxPacket)
	w.Uint8(lr.Charset)
	w.Zeros(23)
	w.CString(lr.User)
	// The auth data's framing follows the capabilities, as
	// ParseLoginRequest reads it.
	switch {
	case caps&CapPluginAuthLenencData != 0:
		w.Raw(appendLenenc(nil, uint64(len(lr.AuthData))))
		w.Raw(lr.AuthData)
	case caps&CapSecureConnection != 0:
		w.Uint8(byte(len(lr.AuthData)))
		w.Raw(lr.AuthData)
	default:
		w.CString(string(lr.AuthData))
	}
	if caps&CapConnectWithDB != 0 {
		w.CString(lr.Database)
	}
	if caps&CapPluginAuth != 0 {
		plugin := lr.AuthPlugin
		if plugin == "" {
			plugin = "mysql_native_password"
		}
		w.CString(plugin)
	}
	return w.Bytes()
}

// ErrPacket renders a MySQL ERR packet payload.
func ErrPacket(code uint16, sqlState, msg string) []byte {
	w := wire.NewWriter(16 + len(msg))
	w.Uint8(0xff)
	w.Uint16LE(code)
	w.Uint8('#')
	w.String(sqlState)
	w.String(msg)
	return w.Bytes()
}

// AuthSwitchRequest renders an AuthSwitchRequest payload asking the client
// to re-authenticate with the named plugin.
func AuthSwitchRequest(plugin string, data []byte) []byte {
	w := wire.NewWriter(2 + len(plugin) + len(data))
	w.Uint8(0xfe)
	w.CString(plugin)
	w.Raw(data)
	w.Uint8(0)
	return w.Bytes()
}

// HexAuth renders captured binary auth data for logging.
func HexAuth(data []byte) string {
	if len(data) == 0 {
		return ""
	}
	return "sha1:" + hex.EncodeToString(data)
}

func readLenenc(r *wire.Reader) (uint64, error) {
	b, err := r.Uint8()
	if err != nil {
		return 0, err
	}
	switch {
	case b < 0xfb:
		return uint64(b), nil
	case b == 0xfc:
		v, err := r.Uint16LE()
		return uint64(v), err
	case b == 0xfd:
		lo, err := r.Uint16LE()
		if err != nil {
			return 0, err
		}
		hi, err := r.Uint8()
		return uint64(lo) | uint64(hi)<<16, err
	case b == 0xfe:
		return r.Uint64LE()
	}
	return 0, fmt.Errorf("mysql: invalid length-encoded integer prefix %#x", b)
}
