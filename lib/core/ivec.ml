type t = { mutable data : int array; mutable size : int }

let create () = { data = Array.make 16 0; size = 0 }
let size v = v.size
let clear v = v.size <- 0

let shrink v n =
  if n < 0 || n > v.size then invalid_arg "Ivec.shrink";
  v.size <- n

let get v i =
  if i < 0 || i >= v.size then invalid_arg "Ivec.get";
  Array.unsafe_get v.data i

let set v i x =
  if i < 0 || i >= v.size then invalid_arg "Ivec.set";
  Array.unsafe_set v.data i x

let grow v =
  let data = Array.make (2 * Array.length v.data) 0 in
  Array.blit v.data 0 data 0 v.size;
  v.data <- data

let push v x =
  if v.size = Array.length v.data then grow v;
  Array.unsafe_set v.data v.size x;
  v.size <- v.size + 1

let to_array v = Array.sub v.data 0 v.size
