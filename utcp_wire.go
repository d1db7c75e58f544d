package minion

// The uTCP protocol stacks run over real sockets by hosting the paper's
// uTCP machinery in userspace on a UDP substrate: every uTCP segment
// travels as one UDP datagram (internal/utcp's packet codec), so the
// kernel never reorders or delays delivery and SO_UNORDERED semantics —
// immediate out-of-order delivery, send-side priorities — survive contact
// with a real network. Dial and Listen accept ProtoUCOBSuTCP and
// ProtoUTLSuTCP on "udp" networks; on "tcp" networks those stacks still
// return ErrSimOnly, because kernel TCP cannot deliver out of order.

// Transport identifies the real-socket substrate a negotiated protocol
// stack rides — the network argument to pass to Dial/Listen.
type Transport int

const (
	// TransportTCP is a kernel TCP socket ("tcp" networks): uCOBS/uTLS
	// framing over an ordinary byte stream.
	TransportTCP Transport = iota
	// TransportUDP is a UDP socket ("udp" networks): the plain shim
	// (ProtoUDP) or userspace uTCP carried datagram-per-segment.
	TransportUDP
)

// Network returns the Dial/Listen network string for the transport.
func (t Transport) Network() string {
	if t == TransportUDP {
		return "udp"
	}
	return "tcp"
}

func (t Transport) String() string { return t.Network() }

// NegotiateTransport picks the best protocol stack this library can dial
// today, together with the substrate to dial it on. It extends Negotiate
// with deployment reality: the uTCP stacks need no kernel support when
// the path lets UDP through (they ride the userspace uTCP-over-UDP
// substrate), but on UDP-hostile or DPI-scrutinized paths they cannot run
// at all and degrade to their kernel-TCP siblings — unlike Negotiate,
// which answers the paper's question of what the endpoints would run if
// uTCP kernels shipped (and is pinned to keep answering it that way).
func NegotiateTransport(prefs Preferences, path PathConstraints) (Protocol, Transport) {
	udpOK := !path.UDPBlocked && !path.TCPOnly443 && !path.DPIValidatesHandshake
	if udpOK && path.PeerSupportsUTCP {
		if prefs.RequireSecure {
			return ProtoUTLSuTCP, TransportUDP
		}
		if !prefs.RequireReliable && prefs.PreferUnordered {
			return ProtoUDP, TransportUDP
		}
		return ProtoUCOBSuTCP, TransportUDP
	}
	switch p := Negotiate(prefs, path); p {
	case ProtoUDP:
		return p, TransportUDP
	case ProtoUCOBSuTCP:
		return ProtoUCOBSTCP, TransportTCP
	case ProtoUTLSuTCP:
		return ProtoUTLSTCP, TransportTCP
	default:
		return p, TransportTCP
	}
}

// udpNetwork reports whether network names a UDP socket family.
func udpNetwork(network string) bool {
	switch network {
	case "udp", "udp4", "udp6":
		return true
	}
	return false
}
