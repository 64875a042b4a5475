(* Length-prefixed marshalled frames over file descriptors and
   channels: the wire format shared by the worker pipes and the shard
   journal. A frame is a 4-byte big-endian payload length, the
   payload's 16-byte [Digest], then the [Marshal]-encoded value.
   Readers either return a complete value whose digest matches or
   report that the stream ended (cleanly, mid-frame or at a damaged
   frame), so a truncated or bit-flipped journal or a pipe cut by a
   dying worker never takes the parent down, and never unmarshals a
   damaged payload. *)

let max_payload = 1 lsl 28
(* sanity bound: a frame above 256MB means a corrupt length prefix *)

let digest_len = 16
let header_len = 4 + digest_len

(* The value of a payload, or [None] if it does not match its digest. *)
let decode ~digest payload =
  if not (Digest.equal digest (Digest.string payload)) then None
  else try Some (Marshal.from_string payload 0) with Failure _ -> None

let rec write_all fd buf ofs len =
  if len > 0 then begin
    let n = Unix.write fd buf ofs len in
    write_all fd buf (ofs + n) (len - n)
  end

(* Encode [v] as one frame into a fresh buffer (header + payload),
   ready for a single [write_all]. *)
let encode v =
  let payload = Marshal.to_string v [] in
  let n = String.length payload in
  let frame = Bytes.create (header_len + n) in
  Bytes.set_int32_be frame 0 (Int32.of_int n);
  Bytes.blit_string (Digest.string payload) 0 frame 4 digest_len;
  Bytes.blit_string payload 0 frame header_len n;
  frame

let write_fd fd v =
  let frame = encode v in
  write_all fd frame 0 (Bytes.length frame)

(* Blocking frame read from a file descriptor (worker side of the
   request pipe). Raises [End_of_file] on a closed or mid-frame EOF,
   or a damaged frame. *)
let read_fd fd =
  let really_read buf ofs len =
    let ofs = ref ofs and len = ref len in
    while !len > 0 do
      let n = Unix.read fd buf !ofs !len in
      if n = 0 then raise End_of_file;
      ofs := !ofs + n;
      len := !len - n
    done
  in
  let hdr = Bytes.create header_len in
  really_read hdr 0 header_len;
  let n = Int32.to_int (Bytes.get_int32_be hdr 0) in
  if n < 0 || n > max_payload then raise End_of_file;
  let payload = Bytes.create n in
  really_read payload 0 n;
  match
    decode ~digest:(Bytes.sub_string hdr 4 digest_len)
      (Bytes.unsafe_to_string payload)
  with
  | Some v -> v
  | None -> raise End_of_file

(* --- incremental decoding (parent side of the response pipes) ------ *)

(* Accumulates raw bytes as they arrive and yields every complete
   frame; a partial frame stays buffered until its remainder shows up
   (or is discarded with the decoder when the worker dies). *)
type decoder = {
  mutable buf : Bytes.t;
  mutable len : int;
}

let decoder () = { buf = Bytes.create 4096; len = 0 }

let feed d chunk chunk_len =
  if d.len + chunk_len > Bytes.length d.buf then begin
    let cap = max (2 * Bytes.length d.buf) (d.len + chunk_len) in
    let buf = Bytes.create cap in
    Bytes.blit d.buf 0 buf 0 d.len;
    d.buf <- buf
  end;
  Bytes.blit chunk 0 d.buf d.len chunk_len;
  d.len <- d.len + chunk_len

let next d =
  if d.len < header_len then None
  else begin
    let n = Int32.to_int (Bytes.get_int32_be d.buf 0) in
    if n < 0 || n > max_payload then failwith "Frame.next: corrupt length";
    if d.len < header_len + n then None
    else begin
      let v =
        match
          decode ~digest:(Bytes.sub_string d.buf 4 digest_len)
            (Bytes.sub_string d.buf header_len n)
        with
        | Some v -> v
        | None -> failwith "Frame.next: corrupt frame"
      in
      let rest = d.len - header_len - n in
      Bytes.blit d.buf (header_len + n) d.buf 0 rest;
      d.len <- rest;
      Some v
    end
  end

(* --- channel variants (journal file) ------------------------------- *)

let write_channel oc v =
  let frame = encode v in
  output_bytes oc frame

(* [None] on clean EOF or a truncated/corrupt tail — the caller keeps
   whatever parsed before the damage. *)
let read_channel ic =
  match really_input_string ic header_len with
  | exception End_of_file -> None
  | hdr ->
    let n = Int32.to_int (String.get_int32_be hdr 0) in
    if n < 0 || n > max_payload then None
    else
      (match really_input_string ic n with
       | exception End_of_file -> None
       | payload -> decode ~digest:(String.sub hdr 4 digest_len) payload)
