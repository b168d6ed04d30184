package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"

	"decoydb/internal/core"
	"decoydb/internal/mssql"
	"decoydb/internal/mysql"
	"decoydb/internal/postgres"
)

// converse plays the client side of s over conn. The dialogues are those
// of simnet's scanClose, mssqlLogin, mysqlLogin and pgLogin scripts
// (scripts.go), which simnet does not export; once it does, they should be
// run here instead. Until then TestClientMatchesSimnet checks that the
// farm records the same events for these dialogues as the simulator
// records for its own. A login ends when the client has read the honeypot's
// close; a scan ends with the client's own close, done by the caller.
func converse(conn net.Conn, s *session) error {
	br := bufio.NewReader(conn)
	if s.scan {
		if s.dbms == core.MySQL {
			// MySQL speaks first; scanners read the greeting.
			_, err := mysql.ReadPacket(br)
			return err
		}
		return nil
	}
	var err error
	switch s.dbms {
	case core.MSSQL:
		err = mssqlLogin(conn, br, s.user, s.pass)
	case core.MySQL:
		err = mysqlLogin(conn, br, s.user, s.pass)
	case core.Postgres:
		err = pgLogin(conn, br, s.user, s.pass)
	default:
		return fmt.Errorf("no login for %s", s.dbms)
	}
	if err != nil {
		return err
	}
	return awaitClose(br)
}

// awaitClose reads until the honeypot closes the connection.
func awaitClose(br *bufio.Reader) error {
	if _, err := br.ReadByte(); err != io.EOF {
		if err == nil {
			return errors.New("unexpected bytes before the server closed")
		}
		return fmt.Errorf("waiting for the server to close: %w", err)
	}
	return nil
}

func mssqlLogin(conn net.Conn, br *bufio.Reader, user, pass string) error {
	pre := mssql.Packet{Type: mssql.PktPrelogin, Payload: mssql.StandardPrelogin(11, 0, 0, 0)}
	if err := mssql.WritePacket(conn, pre); err != nil {
		return err
	}
	if _, err := mssql.ReadPacket(br); err != nil {
		return err
	}
	l7 := mssql.EncodeLogin7(mssql.Login7{HostName: "WIN-BRUTE", UserName: user, Password: pass, AppName: "OSQL-32"})
	if err := mssql.WritePacket(conn, mssql.Packet{Type: mssql.PktLogin7, Payload: l7}); err != nil {
		return err
	}
	_, err := mssql.ReadPacket(br)
	return err
}

// mysqlLogin logs in, complying with the honeypot's switch to cleartext
// authentication.
func mysqlLogin(conn net.Conn, br *bufio.Reader, user, pass string) error {
	if _, err := mysql.ReadPacket(br); err != nil {
		return err
	}
	lr := mysql.LoginRequest{
		Capabilities: mysql.CapLongPassword | mysql.CapProtocol41 | mysql.CapSecureConnection | mysql.CapPluginAuth,
		MaxPacket:    1 << 24, Charset: 0x21, User: user, AuthData: []byte{0x01},
	}
	if err := mysql.WritePacket(conn, mysql.Packet{Seq: 1, Payload: mysql.EncodeLoginRequest(lr)}); err != nil {
		return err
	}
	sw, err := mysql.ReadPacket(br)
	if err != nil {
		return err
	}
	if len(sw.Payload) == 0 || sw.Payload[0] != 0xfe {
		return errors.New("mysql: no auth switch")
	}
	if err := mysql.WritePacket(conn, mysql.Packet{Seq: sw.Seq + 1, Payload: append([]byte(pass), 0)}); err != nil {
		return err
	}
	_, err = mysql.ReadPacket(br)
	return err
}

// pgLogin sends a startup and a cleartext password and reads up to the
// honeypot's verdict; the farm's low-interaction listener denies every
// login.
func pgLogin(conn net.Conn, br *bufio.Reader, user, pass string) error {
	if _, err := conn.Write(postgres.EncodeStartup(map[string]string{"user": user, "database": user})); err != nil {
		return err
	}
	m, err := postgres.ReadMsg(br)
	if err != nil {
		return err
	}
	if m.Type != 'R' {
		return fmt.Errorf("postgres: got %q, want an authentication request", m.Type)
	}
	if err := postgres.WriteMsg(conn, 'p', postgres.EncodePassword(pass)); err != nil {
		return err
	}
	for {
		m, err := postgres.ReadMsg(br)
		if err != nil {
			return err
		}
		switch m.Type {
		case 'E':
			return nil
		case 'Z':
			return errors.New("postgres: login accepted")
		}
	}
}
